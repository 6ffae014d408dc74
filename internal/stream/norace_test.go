//go:build !race

package stream

// raceEnabled reports a -race build: the long detection-quality runs
// skip there, where they would take minutes.
const raceEnabled = false
