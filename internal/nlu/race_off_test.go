//go:build !race

package nlu

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
