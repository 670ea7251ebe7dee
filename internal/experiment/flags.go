package experiment

import (
	"flag"
	"fmt"
	"slices"
)

// Flags is the one design flag table of the simulator binaries: each row
// binds one flag, with one usage string, straight onto a ScenarioSpec
// field (or System), so a design reaches a run only through
// ScenarioSpec.Validate and Params/Options. Preset Spec and System
// before Register: the preset values are the flags' defaults.
type Flags struct {
	Spec   ScenarioSpec
	System System

	fs *flag.FlagSet
}

type flagRow struct {
	name, usage string
	field       any // *int, *int64, *float64, *string, *bool or a flag.Value
}

func (f *Flags) rows() []flagRow {
	return []flagRow{
		{"system", "the `system` to run: upnp|jini1|jini2|frodo3p|frodo2p", systemFlag{&f.System}},
		{"seed", "random seed: every draw derives from it, so the same seed replays the same result", &f.Spec.Seed},
		{"lambda", "interface failure rate λ in [0,1]", &f.Spec.Lambda},
		{"loss", "i.i.d. per-frame loss probability (the message-loss model of [25])", &f.Spec.Link.Loss},
		{"users", "number of Users N (0 = the paper's 5)", &f.Spec.Topology.Users},
		{"managers", "Manager nodes; extras host background services (0 = 1)", &f.Spec.Topology.Managers},
		{"registries", "Registry nodes (0 = the system's Table 4 count)", &f.Spec.Topology.Registries},
		{"services", "distinct background service types (0 = one per extra Manager)", &f.Spec.Topology.Services},
		{"churn", "expected departures per User over the run (Poisson; 0 = no churn)", &f.Spec.Churn.Departures},
		{"absence", "mean absence before rejoining, seconds (0 = departures are permanent)", &f.Spec.Churn.MeanAbsenceSec},
		{"arrivals", "expected fresh User arrivals over the run (Poisson)", &f.Spec.Churn.Arrivals},
		{"burst-loss", "Gilbert–Elliott burst loss at this average rate (0 = off)", &f.Spec.Link.BurstAvg},
		{"burst-len", "mean burst length in frames for -burst-loss", &f.Spec.Link.BurstLen},
		{"delay-dist", "one-way delay distribution: uniform|lognormal|pareto", &f.Spec.Link.DelayDist},
		{"delay-sigma", "lognormal shape for -delay-dist lognormal (0 = 1.0)", &f.Spec.Link.DelaySigma},
		{"delay-alpha", "Pareto tail exponent for -delay-dist pareto (0 = 1.5)", &f.Spec.Link.DelayAlpha},
		{"partition", "bisect the population: `start:duration` in virtual seconds, e.g. 3000:4000", partitionFlag{&f.Spec}},
		{"harden", "run with the full protocol-hardening layer on", &f.Spec.Hardened},
	}
}

// Register adds the named rows to fs. An unknown name is a programming
// error and panics.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	f.fs = fs
	rows := f.rows()
	for _, name := range names {
		i := slices.IndexFunc(rows, func(r flagRow) bool { return r.name == name })
		if i < 0 {
			panic(fmt.Sprintf("experiment: no design flag %q", name))
		}
		usage := rows[i].usage
		switch p := rows[i].field.(type) {
		case *int:
			fs.IntVar(p, name, *p, usage)
		case *int64:
			fs.Int64Var(p, name, *p, usage)
		case *float64:
			fs.Float64Var(p, name, *p, usage)
		case *string:
			fs.StringVar(p, name, *p, usage)
		case *bool:
			fs.BoolVar(p, name, *p, usage)
		case flag.Value:
			fs.Var(p, name, usage)
		}
	}
}

// SetSpec replaces the flag-built design with spec, read from a
// -scenario file. The file already fixes the design, so a design flag
// given beside it is an error — except -seed, which keeps its value
// (the caller's seed axis wins over the spec's), and -harden, which
// turns the spec's hardening on.
func (f *Flags) SetSpec(spec *ScenarioSpec) error {
	var err error
	f.fs.Visit(func(fl *flag.Flag) {
		if err == nil && fl.Name != "seed" && fl.Name != "harden" &&
			slices.ContainsFunc(f.rows(), func(r flagRow) bool { return r.name == fl.Name }) {
			err = fmt.Errorf("-scenario already fixes the design; drop -%s or edit the spec", fl.Name)
		}
	})
	if err != nil {
		return err
	}
	seed, harden := f.Spec.Seed, f.Spec.Hardened
	f.Spec = *spec
	if f.fs.Lookup("seed") != nil {
		f.Spec.Seed = seed
	}
	f.Spec.Hardened = f.Spec.Hardened || harden
	return nil
}

// systemFlag parses -system into a System.
type systemFlag struct{ s *System }

func (v systemFlag) String() string {
	if v.s == nil {
		return ""
	}
	return v.s.Short()
}

func (v systemFlag) Set(name string) (err error) {
	*v.s, err = ParseSystem(name)
	return err
}

// partitionFlag parses -partition start:duration into the spec's one
// scheduled partition.
type partitionFlag struct{ s *ScenarioSpec }

func (v partitionFlag) String() string { return "" }

func (v partitionFlag) Set(arg string) error {
	var p SpecPartition
	if _, err := fmt.Sscanf(arg, "%f:%f", &p.StartSec, &p.DurationSec); err != nil {
		return fmt.Errorf("want start:duration in seconds")
	}
	v.s.Partitions = []SpecPartition{p}
	return nil
}
