// Package storage is a fixture stub standing in for vxml/internal/storage:
// the corruption sentinel the corrupterr fixture wraps.
package storage

import "errors"

// ErrCorrupt is the sentinel every decode error must wrap.
var ErrCorrupt = errors.New("storage: corrupt data")
