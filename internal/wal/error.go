package wal

import "fmt"

// Error is the typed error for every WAL failure: appends, fsyncs,
// checkpoint writes, rotation, and recovery scans. The runtime records it
// as a fault record and fails stop, and tests can assert on Op and
// Simulated (set for faultinject-induced failures, which model crashes
// without real I/O errors).
type Error struct {
	// Op is the failing operation: "append", "fsync", "checkpoint",
	// "emitwm", "rotate", "open", "scan", "prune".
	Op string
	// Path is the segment file involved, when known.
	Path string
	// Err is the underlying cause.
	Err error
	// Simulated marks faults induced by the fault-injection harness.
	Simulated bool
}

// Error implements error.
func (e *Error) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("wal: %s %s: %v", e.Op, e.Path, e.Err)
	}
	return fmt.Sprintf("wal: %s: %v", e.Op, e.Err)
}

// Unwrap returns the underlying cause for errors.Is/As chains.
func (e *Error) Unwrap() error { return e.Err }
