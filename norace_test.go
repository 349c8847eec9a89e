//go:build !race

package zstream_test

const raceEnabled = false
