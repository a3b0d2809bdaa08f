package obs

import (
	"io"
	"strconv"
	"strings"
)

// WriteProm renders the registry's current state in the Prometheus text
// exposition format (version 0.0.4): one `# TYPE` header per metric followed
// by its sample lines, metrics ordered by name, histograms expanded into
// cumulative `_bucket{le="…"}` lines plus `_sum` and `_count`. Names are
// sanitized to the Prometheus charset. A nil registry writes nothing.
//
// The non-finite guards on Gauge.Set and Histogram.Observe mean no sample
// value here is ever NaN or ±Inf; the only +Inf in the output is the
// conventional terminal bucket label, whose count always equals `_count`.
func (r *Registry) WriteProm(w io.Writer) error {
	return WritePromSnapshot(w, r.Snapshot())
}

// WritePromSnapshot renders an already-taken snapshot (see Registry.Snapshot)
// in the Prometheus text exposition format. The snapshot's name ordering is
// preserved, so two renders of the same snapshot are byte-identical.
func WritePromSnapshot(w io.Writer, snap []Metric) error {
	var b strings.Builder
	lastTyped := "" // base name whose TYPE header was last written
	for _, m := range snap {
		name := SanitizeMetricName(m.Name)
		switch m.Kind {
		case "counter", "gauge":
			// Labeled series of one metric share a single TYPE header; the
			// snapshot is sorted by name so they are adjacent.
			if name != lastTyped {
				b.WriteString("# TYPE ")
				b.WriteString(name)
				b.WriteByte(' ')
				b.WriteString(m.Kind)
				b.WriteByte('\n')
				lastTyped = name
			}
			b.WriteString(name)
			if m.Labels != "" {
				b.WriteByte('{')
				b.WriteString(m.Labels)
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatPromValue(m.Value))
			b.WriteByte('\n')
		case "histogram":
			// Labeled series of one histogram share a single TYPE header,
			// exactly like counters and gauges; the snapshot sort keeps them
			// adjacent.
			if name != lastTyped {
				b.WriteString("# TYPE ")
				b.WriteString(name)
				b.WriteString(" histogram\n")
				lastTyped = name
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
				b.WriteString(name)
				b.WriteString("_bucket{")
				b.WriteString(bucketLabels)
				b.WriteString(`le="`)
				b.WriteString(formatPromValue(bk.LE))
				b.WriteString(`"} `)
				b.WriteString(strconv.FormatInt(cum, 10))
				b.WriteByte('\n')
			}
			b.WriteString(name)
			b.WriteString("_bucket{")
			b.WriteString(bucketLabels)
			b.WriteString(`le="+Inf"} `)
			b.WriteString(strconv.FormatInt(m.Count, 10))
			b.WriteByte('\n')
			b.WriteString(name)
			b.WriteString("_sum")
			b.WriteString(suffix)
			b.WriteByte(' ')
			b.WriteString(formatPromValue(m.Sum))
			b.WriteByte('\n')
			b.WriteString(name)
			b.WriteString("_count")
			b.WriteString(suffix)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(m.Count, 10))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SanitizeMetricName maps an arbitrary instrument name onto the Prometheus
// metric-name charset [a-zA-Z_:][a-zA-Z0-9_:]*: every invalid rune becomes
// '_', and a leading digit gains a '_' prefix. An empty name becomes "_".
func SanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	var b []byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if ok {
			if b != nil {
				b = append(b, c)
			}
			continue
		}
		if b == nil { // first invalid byte: copy the clean prefix
			b = make([]byte, 0, len(name)+1)
			if c >= '0' && c <= '9' { // leading digit: keep it, prefixed
				b = append(b, '_', c)
				continue
			}
			b = append(b, name[:i]...)
		}
		b = append(b, '_')
	}
	if b == nil {
		return name
	}
	return string(b)
}

// formatPromValue renders a float the way Prometheus expects: shortest
// round-trip representation, integers without a decimal point.
func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
