package main

import (
	"slices"
	"testing"
)

// TestParseShardCounts: each -sweep-shards entry is a whole positive
// integer. fmt.Sscanf("%d") used to read "1e3" as 1 and "4.5" and "4x" as
// 4 without an error.
func TestParseShardCounts(t *testing.T) {
	if got, err := parseShardCounts("1,4,16"); err != nil || !slices.Equal(got, []int{1, 4, 16}) {
		t.Errorf(`"1,4,16" -> %v, %v; want [1 4 16]`, got, err)
	}
	if got, err := parseShardCounts(" 1, 4 "); err != nil || !slices.Equal(got, []int{1, 4}) {
		t.Errorf(`" 1, 4 " -> %v, %v; want [1 4]`, got, err)
	}
	for _, list := range []string{"1e3", "4.5", "4x", "0", "-2", "", "1,,4", "1,4,"} {
		if got, err := parseShardCounts(list); err == nil {
			t.Errorf("%q accepted as %v", list, got)
		}
	}
}
