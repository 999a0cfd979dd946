// Package tool holds shared plumbing for the command-line programs:
// loading source programs by extension, building a system from a
// topology (BuildNetwork), the one run path trun and tnet share
// (RunNet, which is BuildNetwork then Network.Run; trun's topology is
// OneNode), their exit codes (Verdict) and printing machine statistics.
package tool

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/occam"
)

// LoadProgram reads and translates a program source file: .occ is
// compiled as occam, .tasm (or .s) is assembled.
func LoadProgram(path string, wordBytes int) (core.Image, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return core.Image{}, err
	}
	return TranslateProgram(string(src), filepath.Ext(path), wordBytes)
}

// TranslateProgram translates source text according to its extension.
func TranslateProgram(src, ext string, wordBytes int) (core.Image, error) {
	switch strings.ToLower(ext) {
	case ".occ", ".occam":
		c, err := occam.Compile(src, occam.Options{WordBytes: wordBytes})
		if err != nil {
			return core.Image{}, err
		}
		return c.Image, nil
	case ".tasm", ".s", ".asm":
		a, err := asm.Assemble(src, wordBytes)
		if err != nil {
			return core.Image{}, err
		}
		return a.Image, nil
	}
	return core.Image{}, fmt.Errorf("unknown program extension %q (want .occ or .tasm)", ext)
}

// ModelConfig returns the machine configuration for a model name.
func ModelConfig(model string, memBytes int) (core.Config, error) {
	var cfg core.Config
	switch strings.ToLower(model) {
	case "t424", "":
		cfg = core.T424()
	case "t222":
		cfg = core.T222()
	default:
		return core.Config{}, fmt.Errorf("unknown transputer model %q", model)
	}
	if memBytes > 0 {
		cfg = cfg.WithMemory(memBytes)
	}
	return cfg, nil
}

// PrintStats writes a human-readable statistics summary.
func PrintStats(w io.Writer, name string, st core.Stats, cycleNs int) {
	fmt.Fprintf(w, "%s: %d instructions, %d cycles (%.2f MIPS at %d ns/cycle)\n",
		name, st.Instructions, st.Cycles, st.MIPS(cycleNs), cycleNs)
	fmt.Fprintf(w, "  code %d bytes; %.1f%% of executed instructions single byte\n",
		st.CodeBytes, 100*st.SingleByteFraction())
	fmt.Fprintf(w, "  scheduler: %d enqueues, %d deschedules, %d preemptions, %d timeslices\n",
		st.Enqueues, st.Deschedules, st.Preemptions, st.Timeslices)
	fmt.Fprintf(w, "  messages: %d out / %d in (%d external out, %d external in), bytes %d out / %d in\n",
		st.MessagesOut, st.MessagesIn, st.ExternalOut, st.ExternalIn, st.BytesOut, st.BytesIn)
}
