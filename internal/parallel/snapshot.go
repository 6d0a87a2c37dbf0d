package parallel

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/decluster"
	"repro/internal/geom"
	"repro/internal/pagestore"
	"repro/internal/rtree"
)

// Snapshot format: a self-contained image of a parallel R*-tree —
// configuration, every page (in the pagestore on-disk encoding) and its
// disk/cylinder placement — so a built index can be persisted and
// reloaded without replaying the insertion sequence.
//
//	magic "SQTR", version 1
//	uint16 dim | uint16 numDisks | uint32 cylinders
//	uint16 maxEntries | uint16 minEntries | uint8 spheres
//	policy name (uint8 length + bytes)
//	int64 seed | uint64 root page | uint32 object count | uint32 pages
//	per page: uint64 id | uint16 disk | uint32 cylinder |
//	          uint32 encoded length | encoded page bytes
var snapshotMagic = [4]byte{'S', 'Q', 'T', 'R'}

const snapshotVersion = 1

// maxSnapshotPage bounds the per-page encoded length a snapshot may
// declare, so a corrupt length field cannot drive a giant allocation.
const maxSnapshotPage = 1 << 24

// Snapshot writes the tree to w.
func (t *Tree) Snapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	cfg := t.cfg
	var hdr [13]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(cfg.Dim))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(cfg.NumDisks))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(cfg.Cylinders))
	binary.LittleEndian.PutUint16(hdr[8:], uint16(cfg.MaxEntries))
	binary.LittleEndian.PutUint16(hdr[10:], uint16(cfg.MinEntries))
	if cfg.UseSpheres {
		hdr[12] = 1
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	policy := t.policy.Name()
	if len(policy) > 255 {
		return errors.New("parallel: policy name too long")
	}
	if err := bw.WriteByte(byte(len(policy))); err != nil {
		return err
	}
	if _, err := bw.WriteString(policy); err != nil {
		return err
	}

	// Collect live pages.
	type pageRec struct {
		node *rtree.Node
		pl   Placement
	}
	var pages []pageRec
	t.Walk(func(n *rtree.Node, _ int) bool {
		pl, ok := t.placements[n.ID]
		if !ok {
			pl = Placement{}
		}
		pages = append(pages, pageRec{n, pl})
		return true
	})

	var meta [24]byte
	binary.LittleEndian.PutUint64(meta[0:], uint64(t.cfg.Seed))
	binary.LittleEndian.PutUint64(meta[8:], uint64(t.Root()))
	binary.LittleEndian.PutUint32(meta[16:], uint32(t.Len()))
	binary.LittleEndian.PutUint32(meta[20:], uint32(len(pages)))
	if _, err := bw.Write(meta[:]); err != nil {
		return err
	}

	codec := pagestore.Codec{Dim: cfg.Dim, PageSize: snapshotPageSize(cfg), Spheres: cfg.UseSpheres}
	for _, pr := range pages {
		buf, err := codec.Encode(pr.node)
		if err != nil {
			return fmt.Errorf("parallel: snapshot page %d: %w", pr.node.ID, err)
		}
		var ph [18]byte
		binary.LittleEndian.PutUint64(ph[0:], uint64(pr.node.ID))
		binary.LittleEndian.PutUint16(ph[8:], uint16(pr.pl.Disk))
		binary.LittleEndian.PutUint32(ph[10:], uint32(pr.pl.Cylinder))
		binary.LittleEndian.PutUint32(ph[14:], uint32(len(buf)))
		if _, err := bw.Write(ph[:]); err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// snapshotPageSize returns a page size large enough for the tree's
// configured capacity (the configured PageSize when it fits, otherwise
// the derived minimum — callers may have configured MaxEntries directly).
func snapshotPageSize(cfg Config) int {
	c := pagestore.Codec{Dim: cfg.Dim, PageSize: cfg.PageSize, Spheres: cfg.UseSpheres}
	if cfg.PageSize > 0 && c.Capacity() >= cfg.MaxEntries {
		return cfg.PageSize
	}
	// Smallest page that holds MaxEntries entries.
	entry := c.EntrySize()
	return 16 + entry*cfg.MaxEntries
}

// LoadSnapshot reconstructs a parallel tree from a snapshot.
func LoadSnapshot(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("parallel: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("parallel: bad snapshot magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != snapshotVersion {
		return nil, fmt.Errorf("parallel: unsupported snapshot version %d", ver)
	}
	var hdr [13]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	cfg := Config{
		Dim:        int(binary.LittleEndian.Uint16(hdr[0:])),
		NumDisks:   int(binary.LittleEndian.Uint16(hdr[2:])),
		Cylinders:  int(binary.LittleEndian.Uint32(hdr[4:])),
		MaxEntries: int(binary.LittleEndian.Uint16(hdr[8:])),
		MinEntries: int(binary.LittleEndian.Uint16(hdr[10:])),
		UseSpheres: hdr[12] == 1,
	}
	plen, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	pname := make([]byte, plen)
	if _, err := io.ReadFull(br, pname); err != nil {
		return nil, err
	}
	var meta [24]byte
	if _, err := io.ReadFull(br, meta[:]); err != nil {
		return nil, err
	}
	cfg.Seed = int64(binary.LittleEndian.Uint64(meta[0:]))
	root := rtree.PageID(binary.LittleEndian.Uint64(meta[8:]))
	size := int(binary.LittleEndian.Uint32(meta[16:]))
	pageCount := int(binary.LittleEndian.Uint32(meta[20:]))

	policy, err := decluster.ByName(string(pname), cfg.Seed)
	if err != nil {
		return nil, err
	}
	cfg.Policy = policy

	store := rtree.NewMemStore()
	pt := &Tree{
		cfg:        cfg,
		policy:     policy,
		state:      decluster.NewArrayState(cfg.NumDisks),
		placements: make(map[rtree.PageID]Placement, pageCount),
		rects:      make(map[rtree.PageID]geom.Rect, pageCount),
	}
	maxID := rtree.PageID(0)
	for i := 0; i < pageCount; i++ {
		var ph [18]byte
		if _, err := io.ReadFull(br, ph[:]); err != nil {
			return nil, fmt.Errorf("parallel: page %d header: %w", i, err)
		}
		id := rtree.PageID(binary.LittleEndian.Uint64(ph[0:]))
		pl := Placement{
			Disk:     int(binary.LittleEndian.Uint16(ph[8:])),
			Cylinder: int(binary.LittleEndian.Uint32(ph[10:])),
		}
		blen := int(binary.LittleEndian.Uint32(ph[14:]))
		if blen < 16 || blen > maxSnapshotPage {
			return nil, fmt.Errorf("parallel: page %d: implausible encoded length %d", i, blen)
		}
		// Every page is encoded at the writer's page size, which the
		// format records only as this length: the first page sets it, and
		// a page of any other length is corrupt.
		if i == 0 {
			pt.cfg.PageSize = blen
		} else if blen != pt.cfg.PageSize {
			return nil, fmt.Errorf("parallel: page %d: encoded length %d, earlier pages %d", i, blen, pt.cfg.PageSize)
		}
		buf := make([]byte, blen)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("parallel: page %d body: %w", i, err)
		}
		codec := pagestore.Codec{Dim: cfg.Dim, PageSize: blen, Spheres: cfg.UseSpheres}
		node, err := codec.DecodeNode(buf)
		if err != nil {
			return nil, fmt.Errorf("parallel: page %d: %w", i, err)
		}
		if node.ID != id {
			return nil, fmt.Errorf("parallel: page %d: id mismatch %d vs %d", i, node.ID, id)
		}
		if pl.Disk < 0 || pl.Disk >= cfg.NumDisks {
			return nil, fmt.Errorf("parallel: page %d: disk %d out of range", i, pl.Disk)
		}
		store.Inject(node)
		pt.placements[id] = pl
		pt.state.PagesPerDisk[pl.Disk]++
		if len(node.Entries) > 0 {
			mbr := node.MBR()
			pt.rects[id] = mbr
			pt.state.AreaPerDisk[pl.Disk] += mbr.Area()
			if pt.state.HasSpace {
				pt.state.Space.UnionInPlace(mbr)
			} else {
				pt.state.Space = mbr.Clone()
				pt.state.HasSpace = true
			}
		}
		if id > maxID {
			maxID = id
		}
	}
	store.SetNextID(maxID + 1)

	base, err := rtree.Restore(rtree.Config{
		Dim:        cfg.Dim,
		MaxEntries: cfg.MaxEntries,
		MinEntries: cfg.MinEntries,
		UseSpheres: cfg.UseSpheres,
	}, store, root, size)
	if err != nil {
		return nil, err
	}
	pt.Tree = base
	// rand stream for future cylinder assignments resumes from the seed
	// (placements of already-loaded pages are restored verbatim).
	pt.rnd = newCylinderRand(cfg.Seed)
	base.SetListener(pt)
	if err := base.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("parallel: snapshot fails invariants: %w", err)
	}
	if err := pt.CheckPlacements(); err != nil {
		return nil, err
	}
	return pt, nil
}
