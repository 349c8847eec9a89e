//go:build race

package zstream_test

// raceEnabled reports a -race build, under which sync.Pool discards a
// random share of what is put back, so pooled paths allocate.
const raceEnabled = true
