package main

import "testing"

func TestCheckOnlyModifiesPartitionAndPipeline(t *testing.T) {
	for _, study := range []string{"", "char", "safety", "resilience", "obs", "overload", "fleet"} {
		if checkModifiers(study, true) == nil {
			t.Errorf("-check with -study=%q accepted", study)
		}
		if err := checkModifiers(study, false); err != nil {
			t.Errorf("-study=%q without -check rejected: %v", study, err)
		}
	}
	for _, study := range []string{"partition", "pipeline"} {
		if err := checkModifiers(study, true); err != nil {
			t.Errorf("-check with -study=%s rejected: %v", study, err)
		}
	}
}
