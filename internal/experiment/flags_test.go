package experiment

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// parseFlags does what a binary does: register rows, parse, validate.
func parseFlags(f *Flags, rows []string, args ...string) error {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs, rows...)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return f.Spec.Validate()
}

// sdsim's rows and defaults, accepted and rejected as its former
// hand-written check did, each error one line naming the flag or field.
func TestFlagsCheckSimRows(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // error substring; "" = accepted
	}{
		{"-system frodo2p -lambda 0.15", ""},
		{"-system upnp -lambda 0 -loss 1", ""},
		{"-system jini2 -lambda 1 -loss 0.5", ""},
		{"-system nope", `-system: experiment: unknown system "nope"`},
		{"-lambda 2", "lambda 2 out of [0,1]"},
		{"-lambda -1", "lambda -1 out of [0,1]"},
		{"-lambda NaN", "lambda NaN is not a finite number"},
		{"-loss +Inf", "link.loss +Inf is not a finite number"},
		{"-loss 1.5", "link.loss 1.5 out of [0,1]"},
		{"-loss -0.1", "link.loss"},
	} {
		f := Flags{System: Frodo2P, Spec: ScenarioSpec{Seed: 1, Lambda: 0.15}}
		err := parseFlags(&f, []string{"system", "lambda", "seed", "loss"}, strings.Fields(tc.args)...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v, want accepted", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: %v, want an error naming %q", tc.args, err, tc.want)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: error spans lines: %q", tc.args, err)
		}
	}

	f := Flags{System: Frodo2P}
	if err := parseFlags(&f, []string{"system", "lambda", "seed", "loss"}, "-system", "jini2", "-lambda", "0.4", "-seed", "7", "-loss", "0.25"); err != nil {
		t.Fatal(err)
	}
	rs := f.Spec.RunSpec(f.System)
	if rs.System != Jini2 || rs.Lambda != 0.4 || rs.Seed != 7 || rs.Opts.Loss != 0.25 {
		t.Errorf("run spec = %+v", rs)
	}
}

// Every row of the table edits the design: one value per flag moves
// the spec (or System), and the spec's own conversion test
// (TestSpecConversionCoversEveryField) carries each field on to the run.
// With -scenario, every design row conflicts except the -seed and
// -harden overlays.
func TestEveryFlagEditsTheDesign(t *testing.T) {
	values := map[string]string{
		"system": "jini2", "seed": "9", "lambda": "0.3", "loss": "0.1",
		"users": "7", "managers": "3", "registries": "2", "services": "1",
		"churn": "1", "absence": "300", "arrivals": "2",
		"burst-loss": "0.2", "burst-len": "4", "delay-dist": "pareto", "delay-sigma": "0.5", "delay-alpha": "2",
		"partition": "3000:400", "harden": "true",
	}
	var all []string
	for _, r := range (&Flags{}).rows() {
		all = append(all, r.name)
	}
	for _, r := range (&Flags{}).rows() {
		v, ok := values[r.name]
		if !ok {
			t.Errorf("-%s: no test value", r.name)
			continue
		}
		var base, f Flags
		base.Register(flag.NewFlagSet("base", flag.ContinueOnError), all...)
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f.Register(fs, all...)
		if err := fs.Parse([]string{"-" + r.name + "=" + v}); err != nil {
			t.Errorf("-%s %s: %v", r.name, v, err)
			continue
		}
		if reflect.DeepEqual(f.Spec, base.Spec) && f.System == base.System {
			t.Errorf("-%s %s left the design unchanged", r.name, v)
		}

		loaded := ScenarioSpec{Seed: 4, Lambda: 0.5}
		err := f.SetSpec(&loaded)
		switch r.name {
		case "seed":
			if err != nil || f.Spec.Seed != 9 || f.Spec.Lambda != 0.5 {
				t.Errorf("-seed with a spec: %v, spec %+v; want the flag's seed over the spec", err, f.Spec)
			}
		case "harden":
			if err != nil || !f.Spec.Hardened || f.Spec.Lambda != 0.5 {
				t.Errorf("-harden with a spec: %v, spec %+v; want the spec hardened", err, f.Spec)
			}
		default:
			if err == nil || !strings.Contains(err.Error(), "drop -"+r.name) {
				t.Errorf("-%s with a spec: %v, want the conflict named", r.name, err)
			}
		}
	}

	// An unset -seed row still wins: the seed is the caller's axis.
	var f Flags
	f.Spec.Seed = 1
	f.Register(flag.NewFlagSet("test", flag.ContinueOnError), "seed", "users")
	if err := f.SetSpec(&ScenarioSpec{Seed: 4, Hardened: true}); err != nil || f.Spec.Seed != 1 || !f.Spec.Hardened {
		t.Errorf("SetSpec = %v, spec %+v; want seed 1, the spec's hardening kept", err, f.Spec)
	}
}
