//go:build !race

// Package raceflag tells tests whether the race detector is compiled
// in: its instrumentation allocates, so steady-state allocation guards
// skip themselves under -race.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
