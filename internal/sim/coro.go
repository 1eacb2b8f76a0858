//go:build go1.23

package sim

import "iter"

// start backs p with a stdlib coroutine running body. This is the package's
// only use of the go1.23 iter package, kept in its own constrained file so
// the module's go directive can stay at 1.22 (see DESIGN.md, "Process
// model").
func (p *Proc) start(body iter.Seq[struct{}]) {
	p.next, p.stop = iter.Pull(body)
}
