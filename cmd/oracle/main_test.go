package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"
)

func runArgs(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(&out, flag.NewFlagSet("oracle", flag.ContinueOnError), args)
	return out.String(), err
}

// TestJobFlagsRefusedByName: the job set resolves through internal/stack,
// so a flag the chosen source would ignore is refused by name instead of
// dropped. (-workloads canneal,swaptions -suite parsec -mix 3 used to
// search the two-job space and exit 0.)
func TestJobFlagsRefusedByName(t *testing.T) {
	for _, c := range []struct {
		args  []string
		flags []string // every flag the refusal must name
	}{
		{[]string{"-workloads", "canneal,swaptions", "-suite", "parsec", "-mix", "3"}, []string{"-workloads", "-suite"}},
		{[]string{"-workloads", "canneal,swaptions", "-suite", "parsec"}, []string{"-workloads", "-suite"}},
		{[]string{"-workloads", "canneal,swaptions", "-mix", "3"}, []string{"-mix", "-suite"}},
		{[]string{"-warmup", "-1"}, []string{"-warmup"}},
	} {
		out, err := runArgs(c.args...)
		if err == nil {
			t.Errorf("%v: accepted, printed %q", c.args, out)
			continue
		}
		for _, f := range c.flags {
			if !strings.Contains(err.Error(), f+" ") {
				t.Errorf("%v: error does not name %s: %v", c.args, f, err)
			}
		}
		if out != "" {
			t.Errorf("%v: refused, yet printed %q", c.args, out)
		}
	}
}

// TestDefaultJobSet: with no job flag the search runs PARSEC mix 0, and
// -mix alone picks a PARSEC mix, as before -suite lost its default.
func TestDefaultJobSet(t *testing.T) {
	for _, c := range []struct{ bare, explicit []string }{
		{nil, []string{"-suite", "parsec", "-mix", "0"}},
		{[]string{"-mix", "3"}, []string{"-suite", "parsec", "-mix", "3"}},
	} {
		got, err := runArgs(c.bare...)
		if err != nil {
			t.Fatalf("%v: %v", c.bare, err)
		}
		want, err := runArgs(c.explicit...)
		if err != nil {
			t.Fatalf("%v: %v", c.explicit, err)
		}
		if got != want || !strings.HasPrefix(got, "space: ") {
			t.Errorf("%v printed\n%s\n%v printed\n%s", c.bare, got, c.explicit, want)
		}
	}
}

// TestPositionalArgumentsRefused: the flags take no arguments, so one on
// the command line is a flag given without its value, which swallowed the
// next flag; it is refused by name before the search runs.
func TestPositionalArgumentsRefused(t *testing.T) {
	out, err := runArgs("-suite", "parsec", "-mix", "0", "stray")
	if !errors.Is(err, errArgs) || !strings.Contains(err.Error(), `"stray"`) {
		t.Errorf("a stray argument: %v, want it refused by name", err)
	}
	if out != "" {
		t.Errorf("a stray argument: refused, yet printed %q", out)
	}
}
