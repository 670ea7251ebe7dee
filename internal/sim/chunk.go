package sim

// Chunk returns the next chunk of a free-list pool: zero records for the
// caller to thread onto its free list. *grown is the length of the pool's
// last chunk (zero before the first); lengths double from lo up to hi.
// A chunk is only ever indexed, never appended to or copied (its records
// are handed out by address and may embed noCopy timers), and belongs to
// the one kernel, table or network that asked for it.
func Chunk[T any](grown *int, lo, hi int) []T {
	n := min(max(2**grown, lo), hi)
	*grown = n
	return make([]T, n)
}
