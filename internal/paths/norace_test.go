//go:build !race

package paths

const raceEnabled = false
