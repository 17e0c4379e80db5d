package stats

import (
	"strings"
	"testing"
)

func TestExposition(t *testing.T) {
	var b strings.Builder
	f := NewFamily(&b, "x_total", "counter", "Things.")
	f.Sample(uint64(3), "a", "1", "b", `q"r`)
	f.Sample(true)
	NewFamily(&b, "y", "gauge", "").Sample(1.5)
	NewFamily(&b, "h", "histogram", "").Histogram(func(i int) float64 { return float64(int(1) << i) },
		[]uint64{1, 0, 2}, 7, 4, "k", "v")
	want := `# HELP x_total Things.
# TYPE x_total counter
x_total{a="1",b="q\"r"} 3
x_total 1
# TYPE y gauge
y 1.5
# TYPE h histogram
h_bucket{k="v",le="1"} 1
h_bucket{k="v",le="2"} 1
h_bucket{k="v",le="4"} 3
h_bucket{k="v",le="+Inf"} 4
h_sum{k="v"} 7
h_count{k="v"} 4
`
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}
