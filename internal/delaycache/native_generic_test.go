//go:build purego || !amd64

package delaycache

// converters are the routes NewNative takes on this build: the loop.
func converters() map[string]func(f func()) {
	return map[string]func(f func()){"loop": func(f func()) { f() }}
}
