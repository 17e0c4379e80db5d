package iofault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNoSpace stands in for ENOSPC in injected write failures.
var ErrNoSpace = errors.New("iofault: no space left on device")

// ErrSyncFailed stands in for a failed fsync in injected failures.
var ErrSyncFailed = errors.New("iofault: fsync failed")

type memFile struct {
	data   []byte
	synced int // prefix length known durable (last successful Sync)
}

// writeFault injects a write failure on one file: the next writes succeed
// for `remaining` more bytes, then the write is cut short (n < len(p)) and
// err is returned — the same shape a real ENOSPC or a crashed disk produces.
// The fault is sticky: once tripped, every later write fails with 0 bytes.
type writeFault struct {
	remaining int
	err       error
}

// Mem is an in-memory FS with crash semantics and fault injection. Every
// file tracks its full written content and the prefix made durable by Sync;
// tests build crash images by truncating the written bytes at any offset at
// or beyond the durable prefix — exactly the set of states a real crash can
// leave behind.
type Mem struct {
	mu          sync.Mutex
	files       map[string]*memFile
	dirs        map[string]bool
	writeFaults map[string]*writeFault
	syncFaults  map[string]error
	dirSyncs    int
	renames     int
}

// NewMem returns an empty in-memory filesystem with a root directory.
func NewMem() *Mem {
	return &Mem{
		files:       make(map[string]*memFile),
		dirs:        map[string]bool{".": true, "/": true},
		writeFaults: make(map[string]*writeFault),
		syncFaults:  make(map[string]error),
	}
}

func memClean(name string) string { return filepath.Clean(name) }

type memHandle struct {
	m        *Mem
	name     string
	f        *memFile
	pos      int
	readable bool
	writable bool
	closed   bool
}

// OpenFile supports the flag combinations the durability layer uses:
// O_RDONLY for replay, O_WRONLY|O_CREATE(|O_TRUNC|O_APPEND) for segments
// and snapshots. Writes always land at the end of the file — the layer is
// append-only by construction.
func (m *Mem) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memClean(name)
	f, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		if dir := filepath.Dir(name); !m.dirExistsLocked(dir) {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		f = &memFile{}
		m.files[name] = f
	} else if flag&os.O_TRUNC != 0 {
		f.data = nil
		f.synced = 0
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	return &memHandle{
		m:        m,
		name:     name,
		f:        f,
		readable: !writable || flag&os.O_RDWR != 0,
		writable: writable,
	}, nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	if !h.readable {
		return 0, &os.PathError{Op: "read", Path: h.name, Err: os.ErrPermission}
	}
	if h.pos >= len(h.f.data) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.pos:])
	h.pos += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	if !h.writable {
		return 0, &os.PathError{Op: "write", Path: h.name, Err: os.ErrPermission}
	}
	if fault := h.m.writeFaults[h.name]; fault != nil && fault.remaining < len(p) {
		n := fault.remaining
		h.f.data = append(h.f.data, p[:n]...)
		fault.remaining = 0
		return n, fault.err
	} else if fault != nil {
		fault.remaining -= len(p)
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	if err := h.m.syncFaults[h.name]; err != nil {
		return err
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	return nil
}

// Rename moves a file. Like the real call it is atomic; fault injection for
// the rename-durability window is modeled by the caller's SyncDir discipline
// (see DirSyncs).
func (m *Mem) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = memClean(oldpath), memClean(newpath)
	f, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	m.renames++
	return nil
}

// Remove deletes the named file.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memClean(name)
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// MkdirAll registers the directory and all parents.
func (m *Mem) MkdirAll(path string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = memClean(path)
	for p := path; ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

func (m *Mem) dirExistsLocked(dir string) bool {
	if m.dirs[dir] {
		return true
	}
	prefix := dir + string(filepath.Separator)
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// ReadDir lists the sorted base names of the directory's direct file
// children.
func (m *Mem) ReadDir(name string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memClean(name)
	if !m.dirExistsLocked(name) {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: os.ErrNotExist}
	}
	var out []string
	for fname := range m.files {
		if filepath.Dir(fname) == name {
			out = append(out, filepath.Base(fname))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Size returns the file's full written length.
func (m *Mem) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[memClean(name)]
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	return int64(len(f.data)), nil
}

// SyncDir records a directory fsync (the behavioral assertion crash tests
// check: every publish-by-rename and segment create/remove must be followed
// by one).
func (m *Mem) SyncDir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirExistsLocked(memClean(name)) {
		return &os.PathError{Op: "syncdir", Path: name, Err: os.ErrNotExist}
	}
	m.dirSyncs++
	return nil
}

// --- test instrumentation ---

// Bytes returns a copy of the file's full written content (durable or not)
// and whether the file exists.
func (m *Mem) Bytes(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[memClean(name)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.data...), true
}

// SyncedLen returns the length of the file's durable prefix (bytes covered
// by the last successful Sync).
func (m *Mem) SyncedLen(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[memClean(name)]
	if !ok {
		return 0
	}
	return f.synced
}

// SetFile installs content as a fully durable file, creating parents. Crash
// tests use it to build post-crash filesystem images.
func (m *Mem) SetFile(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memClean(name)
	for p := filepath.Dir(name); ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	m.files[name] = &memFile{data: append([]byte(nil), data...), synced: len(data)}
}

// TruncateFile cuts the file's content to n bytes, simulating a torn tail.
func (m *Mem) TruncateFile(name string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[memClean(name)]
	if !ok {
		return
	}
	if n < len(f.data) {
		f.data = f.data[:n]
	}
	if f.synced > len(f.data) {
		f.synced = len(f.data)
	}
}

// FailWritesAfter arms a write fault on name: the next n bytes written
// succeed, after which the triggering write is cut short and err is
// returned; all later writes fail immediately (sticky, like a full disk).
func (m *Mem) FailWritesAfter(name string, n int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		err = ErrNoSpace
	}
	m.writeFaults[memClean(name)] = &writeFault{remaining: n, err: err}
}

// FailSync makes every Sync of name fail with err (sticky until cleared).
func (m *Mem) FailSync(name string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		err = ErrSyncFailed
	}
	m.syncFaults[memClean(name)] = err
}

// ClearFaults disarms all injected faults.
func (m *Mem) ClearFaults() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeFaults = make(map[string]*writeFault)
	m.syncFaults = make(map[string]error)
}

// DirSyncs returns how many directory fsyncs have been issued.
func (m *Mem) DirSyncs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dirSyncs
}

// String summarizes the filesystem state (debugging aid for failed tests).
func (m *Mem) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := m.files[name]
		fmt.Fprintf(&b, "%s: %d bytes (%d synced)\n", name, len(f.data), f.synced)
	}
	return b.String()
}
