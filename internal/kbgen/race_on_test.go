//go:build race

package kbgen

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it because the detector
// itself allocates shadow state.
const raceEnabled = true
