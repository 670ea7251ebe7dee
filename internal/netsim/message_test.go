package netsim

import (
	"testing"
	"unsafe"
)

// TestFrameStructSizes pins the two structs every frame copies: a send
// copies its Outgoing, and every unicast delivery and multicast copy is
// a Message with the packet inline. A field added to either, or to
// wire.Packet, must show up here rather than as a silent cost per frame.
// Message is two cache lines.
func TestFrameStructSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Message{}); got != 128 {
		t.Errorf("Message is %d bytes, want 128", got)
	}
	if got := unsafe.Sizeof(Outgoing{}); got != 96 {
		t.Errorf("Outgoing is %d bytes, want 96", got)
	}
}
