// Package undoc is the doccheck fixture: every exported symbol below that
// lacks a comment must be reported, and nothing else.
package undoc

// Documented is fine.
type Documented struct {
	Noted  int // a trailing comment counts
	Silent int
}

type Bare struct{}

// Method is documented.
func (Documented) Method() {}

func (Documented) Quiet() {}

func Loose() {}

// Grouped constants share the group's comment.
const (
	A = 1
	B = 2
)

const C = 3

var V int

type hidden struct{ Field int }

func (hidden) Exported() {}

func private() {}
