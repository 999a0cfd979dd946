package probe

import (
	"encoding/json"
	"io"
)

// RefWriteFlowJSON is the writer FlowTable.WriteJSON replaced: the whole
// document through one reflective, indenting encoding/json encoder.
// The streaming writer in flow.go has to write the same bytes.  It is
// exported, in the tests only, to the external test package that can
// import a whole network.
func RefWriteFlowJSON(doc *FlowDoc, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
