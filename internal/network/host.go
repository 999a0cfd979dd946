package network

import (
	"io"
	"strconv"

	"transputer/internal/link"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// Host commands.  A program talks to the host development system over
// an ordinary link; every unit is one word (the node's word length,
// little endian), matching occam's word-valued channel outputs.
const (
	// HostCmdPutChar is followed by one word whose low byte is written
	// to the output.
	HostCmdPutChar = 1
	// HostCmdPutWord is followed by one word, recorded in Values and
	// printed in decimal with a newline.
	HostCmdPutWord = 2
	// HostCmdExit marks successful completion of the program.
	HostCmdExit = 4
	// HostCmdGetWord requests one word from the host input queue; the
	// host replies with a word message.
	HostCmdGetWord = 5
)

// Host is the development-system end of a link: it consumes the
// protocol above and supplies requested input words.
type Host struct {
	end       *link.HostEnd
	out       io.Writer
	node      *Node
	link      int
	wordBytes int

	// Values records every word the program reported.
	Values []int64
	// Done is set by the exit command.
	Done bool
	// DoneAt is the simulated time of the exit command.
	DoneAt sim.Time

	k     sim.Clock
	input []int64 // words queued for HostCmdGetWord
	bus   *probe.Bus

	// replies holds the HostCmdGetWord answers not yet taken, the first
	// on the wire: a program may ask again before it reads the last one.
	replies [][]byte
}

// emit publishes a host-command probe event attributed to the node the
// host is wired to.
func (h *Host) emit(cmd, arg int64) {
	if h.bus == nil {
		return
	}
	h.bus.Publish(probe.Event{
		Time: h.k.Now(), Node: h.node.Name,
		Kind: probe.HostCommand, Arg: arg, Bytes: int(cmd),
	})
}

func newHost(k sim.Clock, n *Node, l int, w io.Writer) *Host {
	h := &Host{
		end:       link.NewHostEnd(k),
		out:       w,
		node:      n,
		link:      l,
		wordBytes: n.M.BytesPerWord(),
		k:         k,
	}
	link.ConnectHost(n.Engine, l, h.end)
	h.readCommand()
	return h
}

// QueueInput adds words for the program to read with HostCmdGetWord.
func (h *Host) QueueInput(words ...int64) { h.input = append(h.input, words...) }

// Stall reports a transfer abandoned mid-message, or nil.  The host
// always has a command read pending, so an idle receive that has seen
// no bytes is normal; a receive stopped partway through a word, or any
// unfinished send, means the device hit EOF mid-protocol.
func (h *Host) Stall() *HostStall {
	if got, want, active := h.end.RecvProgress(); active && got > 0 && got < want {
		return &HostStall{Node: h.node.Name, Link: h.link, Got: got, Want: want}
	}
	if sent, want, active := h.end.SendProgress(); active && sent < want {
		return &HostStall{Node: h.node.Name, Link: h.link, Got: sent, Want: want, Out: true}
	}
	return nil
}

func (h *Host) readCommand() {
	h.end.Recv(h.wordBytes, func(b []byte) {
		switch decodeWord(b) {
		case HostCmdPutChar:
			h.end.Recv(h.wordBytes, func(d []byte) {
				v := decodeWord(d)
				h.emit(HostCmdPutChar, v)
				h.write([]byte{byte(v)})
				h.readCommand()
			})
		case HostCmdPutWord:
			h.end.Recv(h.wordBytes, func(d []byte) {
				v := decodeWord(d)
				h.emit(HostCmdPutWord, v)
				h.Values = append(h.Values, v)
				h.write([]byte(strconv.FormatInt(v, 10) + "\n"))
				h.readCommand()
			})
		case HostCmdExit:
			h.emit(HostCmdExit, 0)
			h.Done = true
			h.DoneAt = h.k.Now()
			// Keep listening so stray words do not wedge the link.
			h.readCommand()
		case HostCmdGetWord:
			var v int64
			if len(h.input) > 0 {
				v = h.input[0]
				h.input = h.input[1:]
			}
			h.emit(HostCmdGetWord, v)
			h.reply(encodeWord(v, h.wordBytes))
			h.readCommand()
		default:
			// Unknown command: emit as raw bytes to stay debuggable.
			h.write(b)
			h.readCommand()
		}
	})
}

// reply sends a word to the program once the replies before it have
// been taken.
func (h *Host) reply(w []byte) {
	h.replies = append(h.replies, w)
	if len(h.replies) == 1 {
		h.end.Send(w, h.sendNext)
	}
}

// sendNext is the completion of the reply on the wire: send the next.
func (h *Host) sendNext() {
	h.replies = h.replies[1:]
	if len(h.replies) > 0 {
		h.end.Send(h.replies[0], h.sendNext)
	}
}

func (h *Host) write(b []byte) {
	if h.out != nil {
		h.out.Write(b)
	}
}

func decodeWord(d []byte) int64 {
	var u uint64
	for i := len(d) - 1; i >= 0; i-- {
		u = u<<8 | uint64(d[i])
	}
	// Sign extend from the word width.
	bits := uint(len(d) * 8)
	if u&(1<<(bits-1)) != 0 {
		u |= ^uint64(0) << bits
	}
	return int64(u)
}

func encodeWord(v int64, n int) []byte {
	out := make([]byte, n)
	u := uint64(v)
	for i := 0; i < n; i++ {
		out[i] = byte(u)
		u >>= 8
	}
	return out
}
