package lib_test

import (
	"example.com/apicheck/internal/lib"
	"example.com/apicheck/internal/other"
)

// external passes a Shape from lib-with-tests to other, which type-checks
// only if other is checked again against that variant of lib, as go test
// builds it.
func external() int {
	lib.XTestOnly()
	return other.Use(lib.Helper())
}
