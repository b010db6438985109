package gallery

// Candidate is one ranked identification hypothesis: an enrolled
// subject and its Pearson correlation with the probe.
type Candidate struct {
	// Index is the subject's enrollment index in the gallery.
	Index int
	// ID is the enrolled subject ID.
	ID string
	// Score is the Pearson correlation between the probe and the
	// enrolled fingerprint — the same value match.SimilarityMatrix
	// would put at (Index, probe), bit for bit.
	Score float64
}
