// Package consumer exercises sketchmut from outside the protected
// packages: writes through aliasing accessors are writes to the
// snapshot, copies are fine.
package consumer

import (
	"fairtcim/internal/graph"
	"fairtcim/internal/ris"
)

// clobber writes through accessor-returned slices that alias the
// snapshots' backing arrays.
func clobber(g *graph.Graph, c *ris.Collection) {
	off, _ := g.OutCSR()
	off[0] = 7 // want `write to slice returned by Graph\.OutCSR aliases the snapshot's backing array`
	sizes := c.PoolSizes()
	sizes[0]++ // want `write to slice returned by Collection\.PoolSizes aliases the snapshot's backing array`
}

// clobberRow writes through a per-row and a per-page accessor, held in a
// local and indexed straight off the call: the row and the page's tail
// are windows into a page that every snapshot derived from g shares.
func clobberRow(g *graph.Graph) {
	th := g.InThresholds(3)
	th[0] = 7              // want `write to slice returned by Graph\.InThresholds aliases the snapshot's backing array`
	g.InThresholds(4)[1]++ // want `write to slice returned by Graph\.InThresholds aliases the snapshot's backing array`
	page, _ := g.OutPageThresholds(5)
	page[2] = 7 // want `write to slice returned by Graph\.OutPageThresholds aliases the snapshot's backing array`
}

// safe copies before modifying and only reads the aliases.
func safe(g *graph.Graph, c *ris.Collection) int {
	off, _ := g.OutCSR()
	cp := append([]int32(nil), off...)
	cp[0] = 7 // ok: cp owns its backing array
	return c.PoolSizes()[0] + int(cp[0])
}
