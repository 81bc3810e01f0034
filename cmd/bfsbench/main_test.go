package main

import "testing"

func TestCheckBenchScale(t *testing.T) {
	for _, tc := range []struct {
		scale          int
		counterfactual bool
		ok             bool
	}{
		{16, true, true},
		{4, true, true},
		{24, true, true},
		{3, true, false},
		{25, true, false},
		// Without -counterfactual nothing reads -bench-scale.
		{2, false, true},
		{30, false, true},
	} {
		err := checkBenchScale(tc.scale, tc.counterfactual)
		if (err == nil) != tc.ok {
			t.Errorf("checkBenchScale(%d, %v) = %v, want ok=%v", tc.scale, tc.counterfactual, err, tc.ok)
		}
	}
}
