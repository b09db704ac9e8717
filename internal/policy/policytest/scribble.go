// Package policytest holds a test double for the policy.Policy contract.
package policytest

import (
	"satori/internal/policy"
	"satori/internal/resource"
)

// Scribble wraps p so that its callers are held to Decide's contract: the
// configuration Decide returns is valid until the next Decide call. The
// wrapper returns a copy of p's decision that it owns, and every Decide
// first overwrites the copy it returned last with units of −1, so a caller
// that kept a decision past the next call without copying it reads a
// configuration no space accepts.
func Scribble(p policy.Policy) policy.Policy { return &scribbler{inner: p} }

type scribbler struct {
	inner policy.Policy
	last  resource.Config
}

func (s *scribbler) Name() string { return s.inner.Name() }

func (s *scribbler) Decide(obs policy.Observation, current resource.Config) resource.Config {
	for _, row := range s.last.Alloc {
		for j := range row {
			row[j] = -1
		}
	}
	next := s.inner.Decide(obs, current)
	if !sameShape(s.last, next) {
		s.last = next.Clone()
	} else {
		s.last.CopyFrom(next)
	}
	return s.last
}

func sameShape(a, b resource.Config) bool {
	if len(a.Alloc) != len(b.Alloc) {
		return false
	}
	for r := range a.Alloc {
		if len(a.Alloc[r]) != len(b.Alloc[r]) {
			return false
		}
	}
	return true
}
