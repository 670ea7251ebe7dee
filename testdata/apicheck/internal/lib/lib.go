// Package lib declares one case for each decision of the reachability
// gate; TestUnreachedFixture lists the names it must report.
package lib

// Unused has no reference anywhere: reported.
func Unused() {}

// OwnTestOnly is called only by lib's in-package test: reported.
func OwnTestOnly() {}

// XTestOnly is called only by lib's external test, which sits in lib's
// directory: reported.
func XTestOnly() {}

// OtherTestOnly is called only by the test of another package: reported.
func OtherTestOnly() {}

// helper is unexported and called only by lib's test: reported.
func helper() int { return 1 }

// ReadByCmd is called by a command: kept.
func ReadByCmd() Record {
	r := Record{written: 1, Name: "r"}
	r.written = 2
	r.Kept = len(index)
	return r
}

// Record has one field for each way a field is kept or reported.
type Record struct {
	Kept     int    // read by the command: kept
	written  int    // only written, by a literal and an assignment: reported
	testRead int    // read only by lib's test: reported
	Name     string `json:"name"` // tagged, so encoding/json reads it: kept
}

// key is a map key, so a lookup compares, and reads, every field: kept.
type key struct{ a, b int }

var index = map[key]int{}

// Shape's methods are kept or reported by how they are reached.
type Shape struct{}

// Area is called only through an interface: kept.
func (Shape) Area() int { return 1 }

// String is called by the standard library: kept.
func (Shape) String() string { return "shape" }

// Unused has no reference anywhere: reported.
func (Shape) Unused() {}

// Box is generic; its methods and fields are reached through
// instantiations.
type Box[T any] struct{ v T }

// Get is called on Box[int]: kept.
func (b Box[T]) Get() T { return b.v }
