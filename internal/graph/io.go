package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteEdgeList writes the graph in a plain text format:
//
//	n <vertices>
//	<u> <v>        (one line per undirected edge)
//
// Parallel edges repeat; self-loops appear as "u u".
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.EdgeList() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
