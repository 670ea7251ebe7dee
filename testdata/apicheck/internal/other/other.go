// Package other depends on lib and reaches Shape.Area through an
// interface.
package other

import "example.com/apicheck/internal/lib"

type areaer interface{ Area() int }

// Use reports s's area through the areaer interface.
func Use(s lib.Shape) int {
	var a areaer = s
	return a.Area()
}
