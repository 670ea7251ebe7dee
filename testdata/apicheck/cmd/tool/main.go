// Command tool calls into lib the way a binary of the module does.
package main

import (
	"example.com/apicheck/internal/lib"
	"example.com/apicheck/internal/other"
)

func main() {
	println(lib.ReadByCmd().Kept, other.Use(lib.Shape{}), lib.Box[int]{}.Get())
}
