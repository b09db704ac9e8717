package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"satori/internal/workloads"
)

func runArgs(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(&out, flag.NewFlagSet("mixes", flag.ContinueOnError), args)
	return out.String(), err
}

// TestSuiteJSON: -suite S -json writes the suite's profiles in the
// -profiles schema, every suite the JSON reader knows included, and the
// file reads back as the same jobs. (-json without -lc-frac used to be
// ignored: -suite parsec -json printed the mix listing.)
func TestSuiteJSON(t *testing.T) {
	for name, profiles := range workloads.Suites() {
		got, err := runArgs("-suite", name, "-json")
		if err != nil {
			t.Errorf("-suite %s -json: %v", name, err)
			continue
		}
		var want bytes.Buffer
		if err := workloads.WriteProfiles(&want, profiles); err != nil {
			t.Fatal(err)
		}
		if got != want.String() {
			t.Errorf("-suite %s -json differs from workloads.WriteProfiles of the suite:\n%s", name, got)
		}
		back, err := workloads.ReadProfiles(strings.NewReader(got))
		if err != nil || len(back) != len(profiles) {
			t.Errorf("-suite %s -json reads back as %d profiles, %v; want %d", name, len(back), err, len(profiles))
		}
	}
	if _, err := runArgs("-suite", "bogus", "-json"); err == nil || !strings.HasPrefix(err.Error(), `-suite "bogus": `) {
		t.Errorf("-suite bogus -json: %v, want a refusal naming -suite", err)
	}
}

// TestJSONNeedsASource: -json with neither -suite nor -lc-frac names no
// profiles to write; it is refused by flag name, not answered with the
// mix listing.
func TestJSONNeedsASource(t *testing.T) {
	out, err := runArgs("-json")
	if err == nil || !strings.HasPrefix(err.Error(), "-json ") {
		t.Errorf("-json alone: %v, want a refusal naming -json", err)
	}
	if out != "" {
		t.Errorf("-json alone wrote %q", out)
	}
	// The listing without -json is unchanged: every paper suite, in order.
	out, err = runArgs()
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []string{"== parsec: 21 mixes of 5 jobs ==", "== cloudsuite: 10 mixes of 3 jobs ==", "== ecp: 10 mixes of 2 jobs =="} {
		if !strings.Contains(out, head) {
			t.Errorf("listing lacks %q", head)
		}
	}
}
