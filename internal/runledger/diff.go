package runledger

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"predtop/internal/planner"
	"predtop/internal/predictor"
)

// FieldDiff is one identity-field comparison row.
type FieldDiff struct {
	Field   string `json:"field"`
	Base    string `json:"base"`
	Other   string `json:"other"`
	Changed bool   `json:"changed,omitempty"`
}

// PlanDiff compares the Eqn-4 totals of the plans at one index.
type PlanDiff struct {
	Index     int     `json:"index"`
	Label     string  `json:"label,omitempty"`
	InBase    bool    `json:"in_base"`
	InOther   bool    `json:"in_other"`
	BaseTotal float64 `json:"base_total"`
	NewTotal  float64 `json:"other_total"`
	Delta     float64 `json:"delta"`
	// DeltaPct is the relative change in percent (0 when the base is 0).
	DeltaPct float64 `json:"delta_pct"`
}

// BucketDiff compares one attribution bucket's MRE across two runs, in
// percentage points (other − base). Axis "all" is the label's whole held-out
// population, the row the MRE gate reads.
type BucketDiff struct {
	Label   string  `json:"label"` // attribution label, e.g. model family
	Axis    string  `json:"axis"`  // "all" | "op" | "nodes" | "depth"
	Key     string  `json:"key"`   // bucket key; "" on the "all" row
	BaseMRE float64 `json:"base_mre"`
	NewMRE  float64 `json:"other_mre"`
	Delta   float64 `json:"delta"`
}

// Diff is the full comparison of two manifests — the run-ledger counterpart
// of planner.ReportDiff.
type Diff struct {
	BaseLabel  string `json:"base_label"`
	OtherLabel string `json:"other_label"`
	// CanonicalIdentical reports byte-identity of the two canonical JSON
	// sections: true means the runs are bitwise interchangeable and every
	// listed delta is zero.
	CanonicalIdentical bool         `json:"canonical_identical"`
	Fields             []FieldDiff  `json:"fields,omitempty"`
	Plans              []PlanDiff   `json:"plans,omitempty"`
	Attribution        []BucketDiff `json:"attribution,omitempty"`
}

// Compare diffs two manifests: identity fields (every config key and
// canonical metric among them), per-index plans, and the attribution of
// every label present in both runs — its whole population, then the buckets
// present in both (an absent bucket has no meaningful delta).
func Compare(base, other *Manifest, baseLabel, otherLabel string) *Diff {
	d := &Diff{BaseLabel: baseLabel, OtherLabel: otherLabel}
	cb, errB := base.CanonicalJSON()
	co, errO := other.CanonicalJSON()
	d.CanonicalIdentical = errB == nil && errO == nil && bytes.Equal(cb, co)

	field := func(name, a, b string) {
		d.Fields = append(d.Fields, FieldDiff{Field: name, Base: a, Other: b, Changed: a != b})
	}
	field("schema", fmt.Sprint(base.Canonical.Schema), fmt.Sprint(other.Canonical.Schema))
	field("tool", base.Canonical.Tool, other.Canonical.Tool)
	field("seed", fmt.Sprint(base.Canonical.Seed), fmt.Sprint(other.Canonical.Seed))
	field("config_fingerprint", base.Canonical.configFingerprint(), other.Canonical.configFingerprint())
	field("weights_fingerprint", base.Canonical.WeightsFingerprint, other.Canonical.WeightsFingerprint)
	for _, k := range unionKeys(base.Canonical.Config, other.Canonical.Config) {
		field("config."+k, base.Canonical.Config[k], other.Canonical.Config[k])
	}
	for _, k := range unionKeys(base.Canonical.Metrics, other.Canonical.Metrics) {
		field("metric."+k, metricText(base.Canonical.Metrics, k), metricText(other.Canonical.Metrics, k))
	}

	// Plans: align by index (run-level plan order is deterministic).
	n := len(base.Canonical.Plans)
	if len(other.Canonical.Plans) > n {
		n = len(other.Canonical.Plans)
	}
	for i := 0; i < n; i++ {
		pd := PlanDiff{Index: i}
		if i < len(base.Canonical.Plans) {
			p := base.Canonical.Plans[i]
			pd.InBase, pd.BaseTotal = true, p.Pipeline.Total
			pd.Label = planLabel(p)
		}
		if i < len(other.Canonical.Plans) {
			p := other.Canonical.Plans[i]
			pd.InOther, pd.NewTotal = true, p.Pipeline.Total
			if pd.Label == "" {
				pd.Label = planLabel(p)
			}
		}
		if pd.InBase && pd.InOther {
			pd.Delta = pd.NewTotal - pd.BaseTotal
			if pd.BaseTotal != 0 {
				pd.DeltaPct = 100 * pd.Delta / pd.BaseTotal
			}
		}
		d.Plans = append(d.Plans, pd)
	}

	// Attribution: per shared label, per axis, buckets present in both.
	for _, label := range unionKeys(base.Canonical.Attribution, other.Canonical.Attribution) {
		ba, oa := base.Canonical.Attribution[label], other.Canonical.Attribution[label]
		if ba == nil || oa == nil {
			continue
		}
		d.Attribution = append(d.Attribution, BucketDiff{
			Label: label, Axis: "all",
			BaseMRE: ba.MREPct, NewMRE: oa.MREPct, Delta: oa.MREPct - ba.MREPct,
		})
		for _, axis := range []struct {
			name   string
			bb, ob []predictor.AttributionBucket
		}{{"op", ba.ByOp, oa.ByOp}, {"nodes", ba.ByNodes, oa.ByNodes}, {"depth", ba.ByDepth, oa.ByDepth}} {
			om := map[string]predictor.AttributionBucket{}
			for _, b := range axis.ob {
				om[b.Key] = b
			}
			for _, b := range axis.bb {
				o, ok := om[b.Key]
				if !ok {
					continue
				}
				d.Attribution = append(d.Attribution, BucketDiff{
					Label: label, Axis: axis.name, Key: b.Key,
					BaseMRE: b.MREPct, NewMRE: o.MREPct, Delta: o.MREPct - b.MREPct,
				})
			}
		}
	}
	return d
}

// metricText renders metric k exactly (shortest round-trip form), "" when
// ms lacks it.
func metricText(ms map[string]float64, k string) string {
	if v, ok := ms[k]; ok {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return ""
}

func planLabel(p *planner.Report) string {
	parts := []string{}
	for _, s := range []string{p.Version, p.Model, p.Platform} {
		if s != "" {
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, " ")
}

// unionKeys returns the keys of a and b, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Render returns the human rendering of the diff in the planner ReportDiff
// style: identity fields first (changes flagged), then plan totals and
// attribution deltas. Pure function of the contents.
func (d *Diff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== run diff: %s → %s ===\n", d.BaseLabel, d.OtherLabel)
	if d.CanonicalIdentical {
		b.WriteString("canonical sections: identical\n")
	} else {
		b.WriteString("canonical sections: DIFFER\n")
	}
	for _, f := range d.Fields {
		if !f.Changed {
			continue
		}
		base, other := f.Base, f.Other
		if base == "" {
			base = "-"
		}
		if other == "" {
			other = "-"
		}
		fmt.Fprintf(&b, "  %-28s %s → %s\n", f.Field+":", base, other)
	}
	if len(d.Plans) > 0 {
		b.WriteString("\nplans (Eqn-4 total, s):\n")
		fmt.Fprintf(&b, "  %-3s %-30s %12s %12s %12s\n", "#", "plan", "base", "new", "delta")
		for _, p := range d.Plans {
			base, other := fmt.Sprintf("%.6f", p.BaseTotal), fmt.Sprintf("%.6f", p.NewTotal)
			if !p.InBase {
				base = "-"
			}
			if !p.InOther {
				other = "-"
			}
			fmt.Fprintf(&b, "  %-3d %-30s %12s %12s %+9.6f (%+.2f%%)\n",
				p.Index, p.Label, base, other, p.Delta, p.DeltaPct)
		}
	}
	if len(d.Attribution) > 0 {
		b.WriteString("\nerror attribution (MRE %):\n")
		fmt.Fprintf(&b, "  %-10s %-7s %-24s %10s %10s %10s\n", "label", "axis", "bucket", "base", "new", "delta")
		for _, a := range d.Attribution {
			fmt.Fprintf(&b, "  %-10s %-7s %-24s %10.2f %10.2f %+10.2f\n",
				a.Label, a.Axis, a.Key, a.BaseMRE, a.NewMRE, a.Delta)
		}
	}
	return b.String()
}

// GateThresholds arms the regression sentinel. Zero values disable the
// corresponding gate.
type GateThresholds struct {
	// MREPct fails attribution labels whose held-out MRE worsened by more
	// than this many percentage points (absolute, since MRE is already a
	// percentage).
	MREPct float64
	// LatencyPct fails plans whose Eqn-4 total grew by more than this
	// percentage over the baseline.
	LatencyPct float64
}

// Gate returns one message per regression beyond the thresholds; an empty
// slice means the diff passes. Comparisons only fire for populations
// present in both runs — a new label or plan is a change, not a regression.
func (d *Diff) Gate(th GateThresholds) []string {
	var out []string
	if th.MREPct > 0 {
		for _, a := range d.Attribution {
			if a.Axis == "all" && a.Delta > th.MREPct {
				out = append(out, fmt.Sprintf("attribution %s: MRE %.2f%% → %.2f%% (+%.2f points > %.2f)",
					a.Label, a.BaseMRE, a.NewMRE, a.Delta, th.MREPct))
			}
		}
	}
	if th.LatencyPct > 0 {
		for _, p := range d.Plans {
			if p.InBase && p.InOther && p.BaseTotal > 0 && p.DeltaPct > th.LatencyPct {
				out = append(out, fmt.Sprintf("plan %d %s: total %.6fs → %.6fs (%+.2f%% > %.2f%%)",
					p.Index, p.Label, p.BaseTotal, p.NewTotal, p.DeltaPct, th.LatencyPct))
			}
		}
	}
	return out
}
