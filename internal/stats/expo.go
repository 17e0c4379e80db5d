package stats

import (
	"fmt"
	"io"
	"strconv"
)

// Family is one metric family being written in the Prometheus text
// exposition format (version 0.0.4). NewFamily and its methods are the one
// writer of that format.
type Family struct {
	w    io.Writer
	name string
}

// NewFamily writes the preamble of a family of type typ (counter, gauge or
// histogram) to w: the HELP line, omitted when help is empty, then the TYPE
// line. The family's samples follow through its methods.
func NewFamily(w io.Writer, name, typ, help string) Family {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return Family{w, name}
}

// Sample writes one sample of the family: its labels, given as name, value
// pairs, and v printed with %v, a bool as 1 or 0.
func (f Family) Sample(v any, labels ...string) {
	if b, ok := v.(bool); ok {
		v = 0
		if b {
			v = 1
		}
	}
	f.line("", labels, v)
}

// Histogram writes one histogram series of the family: for each i of counts
// a cumulative bucket with upper edge le(i), holding counts[0] through
// counts[i], then the +Inf bucket holding count, the _sum and the _count.
func (f Family) Histogram(le func(i int) float64, counts []uint64, sum any, count uint64, labels ...string) {
	cum := uint64(0)
	for i, n := range counts {
		cum += n
		f.line("_bucket", append(labels, "le", strconv.FormatFloat(le(i), 'g', -1, 64)), cum)
	}
	f.line("_bucket", append(labels, "le", "+Inf"), count)
	f.line("_sum", labels, sum)
	f.line("_count", labels, count)
}

func (f Family) line(suffix string, labels []string, v any) {
	set := ""
	for i := 0; i+1 < len(labels); i += 2 {
		set += "," + labels[i] + "=" + strconv.Quote(labels[i+1])
	}
	if set != "" {
		set = "{" + set[1:] + "}"
	}
	fmt.Fprintf(f.w, "%s%s%s %v\n", f.name, suffix, set, v)
}
