//go:build !race

package invidx_test

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
