package main

import (
	"strings"
	"testing"
)

func TestValidateSelection(t *testing.T) {
	for _, tc := range []struct {
		table, figure int
		wantErr       string // substring; "" = valid
	}{
		{0, 0, ""},
		{1, 0, ""},
		{5, 0, ""},
		{0, 5, ""},
		{0, 10, ""},
		{3, 7, ""},
		{-1, 0, "no table -1"},
		{6, 0, "no table 6"},
		{7, 5, "no table 7"},
		{0, 1, "architecture diagrams"},
		{0, 4, "architecture diagrams"},
		{0, -1, "no figure -1"},
		{0, 11, "no figure 11"},
	} {
		err := validateSelection(tc.table, tc.figure)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("validateSelection(%d, %d) = %v, want nil", tc.table, tc.figure, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("validateSelection(%d, %d) = %v, want error containing %q", tc.table, tc.figure, err, tc.wantErr)
		}
	}
}
