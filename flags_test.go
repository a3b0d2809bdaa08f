package predtop

import (
	"flag"
	"os"
	"regexp"
	"testing"

	"predtop/internal/cli"
)

// A command declares its own flags on its flag set (ownFlag captures the
// name) and takes the shared ones by naming internal/cli flag groups in one
// Register call (sharedGroups captures the group expression). Scanning source
// keeps this test in sync without running the binaries; the groups are
// expanded through cli.Flags.Register itself, so the test follows whatever
// flags a group declares.
var (
	ownFlag      = regexp.MustCompile(`fs\.(?:String|Bool|Int|Int64|Float64|Duration)\("([a-z0-9-]+)"`)
	sharedGroups = regexp.MustCompile(`\.Register\(fs, ([A-Za-z.|]+),`)
	groupName    = regexp.MustCompile(`cli\.([A-Za-z]+)`)
)

var groups = map[string]cli.Group{
	"Seed": cli.Seed, "Quiet": cli.Quiet, "Metrics": cli.Metrics, "Telemetry": cli.Telemetry,
	"Ledger": cli.Ledger, "Preset": cli.Preset,
}

// declaredFlags returns every flag tool accepts: its own plus the shared
// groups it registers.
func declaredFlags(t *testing.T, tool string) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("cmd/" + tool + "/main.go")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, m := range ownFlag.FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	reg := sharedGroups.FindStringSubmatch(string(src))
	if len(flags) == 0 || reg == nil {
		t.Fatalf("%s: no flag declarations or no cli Register call found; has the declaration style changed?", tool)
	}
	var mask cli.Group
	for _, m := range groupName.FindAllStringSubmatch(reg[1], -1) {
		g, ok := groups[m[1]]
		if !ok {
			t.Fatalf("%s registers unknown flag group cli.%s", tool, m[1])
		}
		mask |= g
	}
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	new(cli.Flags).Register(fs, mask, nil)
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = true })
	return flags
}

// TestCLIFlagParity pins the cross-cutting flag contract between the
// run-producing commands: every tool that records into the run ledger takes
// the same -seed/-quiet/-runledger trio, and the experiment drivers share
// the same telemetry flag set. A new command (or a renamed flag, or a tool
// that drops a shared group) that breaks the convention fails here with the
// tool and flag named.
func TestCLIFlagParity(t *testing.T) {
	runProducers := []string{
		"predtop-train", "predtop-eval", "predtop-plan", "predtop-serve", "predtop-replay",
	}
	experimentDrivers := []string{"predtop-train", "predtop-eval", "predtop-plan"}

	for _, g := range []struct {
		what  string
		flags []string
		tools []string
	}{
		{"ledger trio", []string{"seed", "quiet", "runledger"}, runProducers},
		{"telemetry set", []string{"trace", "listen", "profile"}, experimentDrivers},
	} {
		for _, tool := range g.tools {
			declared := declaredFlags(t, tool)
			for _, name := range g.flags {
				if !declared[name] {
					t.Errorf("%s: missing -%s (%s parity)", tool, name, g.what)
				}
			}
		}
	}

	// These flag sets are closed. The daemon's batching knobs and every
	// tool's -workers were deleted on measurements (DESIGN.md §6, §9): fan-out
	// width is GOMAXPROCS. -driftmre went with the batch tools' streaming
	// accuracy monitor (DESIGN.md §7): a run's held-out MRE is its
	// attribution. predtop-train's -load and -stage are what is left of the
	// stage-prediction tool folded into it. -metrics is taken only where a
	// record has no other home — predtop-train's epochs, the daemon's access
	// records — and -accesslog went: access records go to the daemon's
	// -metrics. -out went from eval and plan: a report's numbers are in the
	// run's manifest, which EXPERIMENTS.md is rendered from; -fig3frac went
	// too: Fig 3 shows the largest fraction the grid ran. A flag that brings
	// one back, under any name, has to edit its list to land.
	batch := []string{"seed", "quiet", "trace", "listen", "profile", "runledger"}
	for tool, own := range map[string][]string{
		"predtop-serve": {"models", "listen", "cachesize", "addrfile", "slo-p99", "slo-err", "incidents",
			"seed", "quiet", "metrics", "runledger"},
		"predtop-train": append([]string{"bench", "platform", "mesh", "conf", "arch", "layers", "samples", "maxlen",
			"epochs", "trainfrac", "o", "load", "stage", "metrics"}, batch...),
		"predtop-eval": append([]string{"bench", "platform", "fig", "ablate", "tables", "preset"}, batch...),
		"predtop-plan": append([]string{"bench", "report", "whatif", "diff", "preset"}, batch...),
	} {
		declared := declaredFlags(t, tool)
		for _, name := range own {
			if !declared[name] {
				t.Errorf("%s: missing -%s", tool, name)
			}
			delete(declared, name)
		}
		for name := range declared {
			t.Errorf("%s: unexpected flag -%s", tool, name)
		}
	}
}
