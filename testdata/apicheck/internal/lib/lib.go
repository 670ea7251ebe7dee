// Package lib declares one export for each case the unused-API gate
// decides; TestUnusedExportsFixture lists the ones it must report.
package lib

// Unused has no reference anywhere: reported.
func Unused() {}

// OwnTestOnly is read only by lib's in-package test: reported.
func OwnTestOnly() {}

// XTestOnly is read only by lib's external test, which sits in lib's
// directory: reported.
func XTestOnly() {}

// ReadByOtherTest is read by the test of another package: kept.
func ReadByOtherTest() {}

// ReadByCmd is read by a command: kept.
func ReadByCmd() {}

// Shape is an exported type, so its exported methods are checked.
type Shape struct{}

// Area is called only through an interface: kept.
func (Shape) Area() int { return 1 }

// String is called by the standard library: kept.
func (Shape) String() string { return "shape" }

// Unused has no reference anywhere: reported.
func (Shape) Unused() {}

// Box is generic; its methods are reached through instantiations.
type Box[T any] struct{ v T }

// Get is called on Box[int]: kept.
func (b Box[T]) Get() T { return b.v }

type hidden struct{}

// Method belongs to an unexported type, so it is not checked.
func (hidden) Method() {}
