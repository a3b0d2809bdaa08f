package serve

import (
	"io"
	"strconv"
	"strings"
)

// writeProm renders the registry's current state in the Prometheus text
// exposition format (version 0.0.4) — the body of GET /metrics: one `# TYPE`
// header per metric followed by its sample lines, metrics ordered by name (so
// two renders of one state are byte-identical), histograms expanded into
// cumulative `_bucket{le="…"}` lines plus `_sum` and `_count`. Every series
// is already in exposition form (see Metrics), so nothing is escaped or
// sanitized here. A nil registry writes nothing.
//
// The non-finite guards on gauge.Set and Histogram.Observe mean no sample
// value here is ever NaN or ±Inf; the only +Inf in the output is the
// conventional terminal bucket label, whose count always equals `_count`.
func (r *Metrics) writeProm(w io.Writer) error {
	var b strings.Builder
	lastTyped := "" // family whose TYPE header was last written
	for _, m := range r.Snapshot() {
		name := m.Name
		// The series of one family share a single TYPE header; the snapshot is
		// sorted by name, so they are adjacent.
		if name != lastTyped {
			b.WriteString("# TYPE " + name + " " + m.Kind + "\n")
			lastTyped = name
		}
		if m.Kind != "histogram" {
			b.WriteString(name)
			if m.Labels != "" {
				b.WriteString("{" + m.Labels + "}")
			}
			b.WriteString(" " + formatPromValue(m.Value) + "\n")
			continue
		}
		// bucketLabels is the inner label block each _bucket line carries
		// before its `le`; _sum and _count carry m.Labels alone.
		bucketLabels := ""
		suffix := ""
		if m.Labels != "" {
			bucketLabels = m.Labels + ","
			suffix = "{" + m.Labels + "}"
		}
		cum := int64(0)
		for _, bk := range m.Buckets {
			cum += bk.Count
			b.WriteString(name + "_bucket{" + bucketLabels + `le="` + formatPromValue(bk.LE) + `"} ` +
				strconv.FormatInt(cum, 10) + "\n")
		}
		b.WriteString(name + "_bucket{" + bucketLabels + `le="+Inf"} ` + strconv.FormatInt(m.Count, 10) + "\n")
		b.WriteString(name + "_sum" + suffix + " " + formatPromValue(m.Sum) + "\n")
		b.WriteString(name + "_count" + suffix + " " + strconv.FormatInt(m.Count, 10) + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatPromValue renders a float the way Prometheus expects: shortest
// round-trip representation, integers without a decimal point.
func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
