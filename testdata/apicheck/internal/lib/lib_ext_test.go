package lib_test

import (
	"example.com/apicheck/internal/lib"
	"example.com/apicheck/internal/other"
)

func external() int {
	lib.XTestOnly()
	return other.Use(lib.Helper())
}
