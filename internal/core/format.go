package core

import (
	"fmt"
	"sort"
	"strings"
)

// Format renders the scheduled multicast as an indented tree with step
// annotations, in the style of the paper's figures:
//
//	0000
//	├─(1)→ 1110
//	│  └─(2)→ 1011
//	└─(1)→ 0101
func (s *Schedule) Format() string {
	t := s.Tree
	var b strings.Builder
	fmt.Fprintf(&b, "%s multicast from %s (%s, %d steps)\n",
		t.Algorithm, t.Cube.Binary(t.Source), s.Port, s.Steps())
	// first[i] is the slot receiving Sends[i][0]; Sends[i][j] reaches
	// slot first[i]+j.
	first := make([]int, len(t.Sends))
	next := 1
	for i, sends := range t.Sends {
		first[i] = next
		next += len(sends)
	}
	var rec func(i int, prefix string)
	rec = func(i int, prefix string) {
		kids := make([]int, len(t.Sends[i]))
		for j := range kids {
			kids[j] = first[i] + j
		}
		sort.SliceStable(kids, func(a, b int) bool {
			sa, sb := s.recv[kids[a]], s.recv[kids[b]]
			if sa != sb {
				return sa < sb
			}
			return t.Order[kids[a]] < t.Order[kids[b]]
		})
		for n, k := range kids {
			branch, cont := "├─", "│  "
			if n == len(kids)-1 {
				branch, cont = "└─", "   "
			}
			fmt.Fprintf(&b, "%s%s(%d)→ %s\n", prefix, branch, s.recv[k], t.Cube.Binary(t.Order[k]))
			rec(k, prefix+cont)
		}
	}
	b.WriteString(t.Cube.Binary(t.Source) + "\n")
	rec(0, "")
	return b.String()
}
