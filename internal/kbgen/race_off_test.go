//go:build !race

package kbgen

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
