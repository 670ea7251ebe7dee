package other

import "example.com/apicheck/internal/lib"

func otherTest() { lib.OtherTestOnly() }
