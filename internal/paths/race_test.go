//go:build race

package paths

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool deliberately drops Puts at random — so the walk's
// alloc counts are meaningless and those assertions are skipped.
const raceEnabled = true
