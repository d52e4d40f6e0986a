package stats

import (
	"encoding/json"
	"fmt"

	"ulmt/internal/checkpoint"
)

// Snapshot serializes the histogram's counts; bucket edges are
// construction-time configuration and are re-created by the restoring
// run, but they are written too so Restore can verify the geometry
// matches.
func (h *Histogram) Snapshot(w *checkpoint.Writer) {
	w.Tag("hist")
	w.I64s(h.edges)
	w.U64s(h.counts)
	w.U64(h.total)
}

// Restore implements the checkpoint.Snapshotter restore side.
func (h *Histogram) Restore(r *checkpoint.Reader) {
	r.Tag("hist")
	r.I64sInto(h.edges)
	r.U64sInto(h.counts)
	h.total = r.U64()
}

// histogramJSON is the exported wire form of Histogram for the
// experiment runner's result cache. Counts are exact integers, so a
// marshal/unmarshal round trip reproduces the histogram bit-for-bit.
type histogramJSON struct {
	Edges  []int64  `json:"edges"`
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
}

// MarshalJSON lets a Histogram survive the Results JSON round trip
// despite its unexported fields.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Edges: h.edges, Counts: h.counts, Total: h.total})
}

// UnmarshalJSON restores a Histogram persisted by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Counts) != len(j.Edges) {
		return fmt.Errorf("stats: histogram with %d edges needs %d counts, got %d",
			len(j.Edges), len(j.Edges), len(j.Counts))
	}
	h.edges = j.Edges
	h.counts = j.Counts
	h.total = j.Total
	return nil
}
