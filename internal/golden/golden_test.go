package golden

import "testing"

func TestFirstDiff(t *testing.T) {
	for _, tc := range []struct{ want, got, report string }{
		{"a\nb\n", "a\nb\n", "(no line differs)"},
		{"a\nb\n", "a\nc\n", "line 2:\n  want: b\n  got:  c"},
		{"a\n", "a\nb\n", "line 2:\n  want: \n  got:  b"},
	} {
		if got := firstDiff(tc.want, tc.got); got != tc.report {
			t.Errorf("firstDiff(%q, %q) = %q, want %q", tc.want, tc.got, got, tc.report)
		}
	}
}
