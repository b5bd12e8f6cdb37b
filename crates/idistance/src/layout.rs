//! Blob layout helpers: variable-length byte blobs over fixed-size pages.
//!
//! A blob occupies `ceil(len / page_size)` consecutive pages starting at its
//! start page. Partial reads fetch only the pages covering the requested
//! byte range, which is how candidate verification avoids reading whole
//! sub-partitions.

use std::io;

use promips_storage::{PageBuf, PageId, Pager};

/// Writes `bytes` as a blob on fresh consecutive pages; returns the start
/// page id (blobs are never empty in this codebase, but zero-length blobs
/// are handled by allocating a single page).
pub fn write_blob(pager: &Pager, bytes: &[u8]) -> io::Result<PageId> {
    let ps = pager.page_size();
    let n_pages = bytes.len().div_ceil(ps).max(1);
    let start = pager.allocate()?;
    for extra in 1..n_pages {
        let id = pager.allocate()?;
        debug_assert_eq!(id, start + extra as u64, "blob pages must be consecutive");
    }
    for i in 0..n_pages {
        let mut page = PageBuf::zeroed(ps);
        let lo = i * ps;
        let hi = ((i + 1) * ps).min(bytes.len());
        if lo < hi {
            page.as_mut_slice()[..hi - lo].copy_from_slice(&bytes[lo..hi]);
        }
        pager.write(start + i as u64, page)?;
    }
    Ok(start)
}

/// Reads `len` bytes of a blob starting at `start` (whole-blob read).
pub fn read_blob(pager: &Pager, start: PageId, len: usize) -> io::Result<Vec<u8>> {
    read_blob_range(pager, start, 0, len)
}

/// Reads bytes `[offset, offset + len)` of a blob, touching only the
/// covering pages.
pub fn read_blob_range(
    pager: &Pager,
    start: PageId,
    offset: usize,
    len: usize,
) -> io::Result<Vec<u8>> {
    let ps = pager.page_size();
    let mut out = Vec::with_capacity(len);
    if len == 0 {
        return Ok(out);
    }
    let first_page = offset / ps;
    let last_page = (offset + len - 1) / ps;
    for p in first_page..=last_page {
        let page = pager.read(start + p as u64)?;
        let page_lo = p * ps;
        let lo = offset.max(page_lo) - page_lo;
        let hi = (offset + len).min(page_lo + ps) - page_lo;
        out.extend_from_slice(&page.as_slice()[lo..hi]);
    }
    Ok(out)
}

/// Streams bytes into consecutive pages without page-aligning individual
/// records — the "packed region" layout that lets adjacent sub-partitions
/// share pages (the paper's sequential-disk organization). The writer owns
/// page allocation between `new` and `finish`; nothing else may allocate
/// from the same pager in that window, or the region stops being
/// consecutive.
pub struct RegionWriter<'a> {
    pager: &'a Pager,
    start: Option<PageId>,
    prev_page: PageId,
    buf: Vec<u8>,
    written: u64,
}

impl<'a> RegionWriter<'a> {
    /// Starts a region on the given pager.
    pub fn new(pager: &'a Pager) -> Self {
        Self {
            pager,
            start: None,
            prev_page: 0,
            buf: Vec::new(),
            written: 0,
        }
    }

    /// Appends `bytes`, returning their byte offset within the region.
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<u64> {
        let offset = self.written + self.buf.len() as u64;
        self.buf.extend_from_slice(bytes);
        let ps = self.pager.page_size();
        while self.buf.len() >= ps {
            let rest = self.buf.split_off(ps);
            let mut page = PageBuf::zeroed(ps);
            page.as_mut_slice().copy_from_slice(&self.buf);
            let id = self.pager.allocate()?;
            if let Some(start) = self.start {
                debug_assert_eq!(
                    id,
                    self.prev_page + 1,
                    "region pages must be consecutive (start {start})"
                );
            } else {
                self.start = Some(id);
            }
            self.prev_page = id;
            self.pager.write(id, page)?;
            self.written += ps as u64;
            self.buf = rest;
        }
        Ok(offset)
    }

    /// Flushes the tail page and returns `(start_page, total_len)`.
    pub fn finish(mut self) -> io::Result<(PageId, u64)> {
        let ps = self.pager.page_size();
        let total = self.written + self.buf.len() as u64;
        if !self.buf.is_empty() || self.start.is_none() {
            self.buf.resize(ps, 0);
            let mut page = PageBuf::zeroed(ps);
            page.as_mut_slice().copy_from_slice(&self.buf);
            let id = self.pager.allocate()?;
            if self.start.is_none() {
                self.start = Some(id);
            } else {
                debug_assert_eq!(id, self.prev_page + 1);
            }
            self.pager.write(id, page)?;
        }
        Ok((self.start.expect("region has at least one page"), total))
    }
}

/// Little-endian typed append helpers used by the record codecs.
pub mod enc {
    /// Appends a `u32`.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f64`.
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f32`.
    pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f32` slice.
    pub fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
        for &v in vs {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads a `u32` at `*pos`, advancing it.
    pub fn get_u32(buf: &[u8], pos: &mut usize) -> u32 {
        let v = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap());
        *pos += 4;
        v
    }
    /// Reads a `u64` at `*pos`, advancing it.
    pub fn get_u64(buf: &[u8], pos: &mut usize) -> u64 {
        let v = u64::from_le_bytes(buf[*pos..*pos + 8].try_into().unwrap());
        *pos += 8;
        v
    }
    /// Reads an `f64` at `*pos`, advancing it.
    pub fn get_f64(buf: &[u8], pos: &mut usize) -> f64 {
        let v = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().unwrap());
        *pos += 8;
        v
    }
    /// Reads an `f32` at `*pos`, advancing it.
    pub fn get_f32(buf: &[u8], pos: &mut usize) -> f32 {
        let v = f32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap());
        *pos += 4;
        v
    }
    /// Reads `n` `f32`s at `*pos`, advancing it.
    pub fn get_f32s(buf: &[u8], pos: &mut usize, n: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap()));
            *pos += 4;
        }
        out
    }

    /// A bounds-checked little-endian reader for bytes read back from a
    /// file. The `get_*` helpers above index and unwrap; this reader turns a
    /// read past the end into [`std::io::ErrorKind::InvalidData`], so a
    /// truncated or corrupt directory is an error, not a panic.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A reader positioned at the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Self { buf, pos: 0 }
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// Consumes the next `n` bytes.
        pub fn bytes(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
            if n > self.remaining() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "encoded record runs past the end of its blob",
                ));
            }
            let out = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(out)
        }

        fn array<const N: usize>(&mut self) -> std::io::Result<[u8; N]> {
            Ok(self.bytes(N)?.try_into().expect("N bytes"))
        }

        /// Reads a `u32`.
        pub fn u32(&mut self) -> std::io::Result<u32> {
            self.array().map(u32::from_le_bytes)
        }
        /// Reads a `u64`.
        pub fn u64(&mut self) -> std::io::Result<u64> {
            self.array().map(u64::from_le_bytes)
        }
        /// Reads an `f32`.
        pub fn f32(&mut self) -> std::io::Result<f32> {
            self.array().map(f32::from_le_bytes)
        }
        /// Reads an `f64`.
        pub fn f64(&mut self) -> std::io::Result<f64> {
            self.array().map(f64::from_le_bytes)
        }
        /// Reads `n` `f32`s; checks the length before allocating.
        pub fn f32s(&mut self, n: usize) -> std::io::Result<Vec<f32>> {
            let len = n.saturating_mul(4);
            Ok(self
                .bytes(len)?
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_roundtrip_multiple_pages() {
        let pager = Pager::in_memory(64, 128);
        let bytes: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let start = write_blob(&pager, &bytes).unwrap();
        assert_eq!(read_blob(&pager, start, bytes.len()).unwrap(), bytes);
    }

    #[test]
    fn blob_partial_reads() {
        let pager = Pager::in_memory(64, 128);
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let start = write_blob(&pager, &bytes).unwrap();
        for &(off, len) in &[
            (0usize, 10usize),
            (60, 10),
            (63, 2),
            (128, 64),
            (999, 1),
            (0, 1000),
        ] {
            let got = read_blob_range(&pager, start, off, len).unwrap();
            assert_eq!(got, &bytes[off..off + len], "off={off} len={len}");
        }
    }

    #[test]
    fn partial_read_touches_only_covering_pages() {
        let pager = Pager::in_memory(64, 128);
        let bytes = vec![7u8; 640]; // 10 pages
        let start = write_blob(&pager, &bytes).unwrap();
        pager.stats().reset();
        let _ = read_blob_range(&pager, start, 128, 64).unwrap(); // exactly page 2
        assert_eq!(pager.stats().snapshot().logical_reads, 1);
        pager.stats().reset();
        let _ = read_blob_range(&pager, start, 100, 64).unwrap(); // spans pages 1..=2
        assert_eq!(pager.stats().snapshot().logical_reads, 2);
    }

    #[test]
    fn empty_and_tiny_blobs() {
        let pager = Pager::in_memory(64, 16);
        let start = write_blob(&pager, &[]).unwrap();
        assert_eq!(read_blob(&pager, start, 0).unwrap(), Vec::<u8>::new());
        let start = write_blob(&pager, &[42]).unwrap();
        assert_eq!(read_blob(&pager, start, 1).unwrap(), vec![42]);
    }

    #[test]
    fn region_writer_packs_records() {
        let pager = Pager::in_memory(64, 256);
        let mut w = RegionWriter::new(&pager);
        let mut offsets = Vec::new();
        let records: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 7 + (i as usize % 5)]).collect();
        for r in &records {
            offsets.push(w.append(r).unwrap());
        }
        let (start, len) = w.finish().unwrap();
        let expected_len: u64 = records.iter().map(|r| r.len() as u64).sum();
        assert_eq!(len, expected_len);
        // Packed: far fewer pages than one per record.
        assert!(pager.num_pages() <= len.div_ceil(64) + 1);
        for (off, rec) in offsets.iter().zip(&records) {
            let got = read_blob_range(&pager, start, *off as usize, rec.len()).unwrap();
            assert_eq!(&got, rec);
        }
    }

    #[test]
    fn region_writer_empty_region() {
        let pager = Pager::in_memory(64, 16);
        let w = RegionWriter::new(&pager);
        let (_, len) = w.finish().unwrap();
        assert_eq!(len, 0);
    }

    #[test]
    fn region_writer_exact_page_multiple() {
        let pager = Pager::in_memory(64, 16);
        let mut w = RegionWriter::new(&pager);
        w.append(&[7u8; 128]).unwrap();
        let (start, len) = w.finish().unwrap();
        assert_eq!(len, 128);
        assert_eq!(
            read_blob_range(&pager, start, 0, 128).unwrap(),
            vec![7u8; 128]
        );
    }

    #[test]
    fn enc_roundtrip() {
        use enc::*;
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -1.5);
        put_f32s(&mut buf, &[1.0, 2.5, -3.25]);
        let mut pos = 0;
        assert_eq!(get_u32(&buf, &mut pos), 7);
        assert_eq!(get_u64(&buf, &mut pos), u64::MAX - 3);
        assert_eq!(get_f64(&buf, &mut pos), -1.5);
        assert_eq!(get_f32s(&buf, &mut pos, 3), vec![1.0, 2.5, -3.25]);
        assert_eq!(pos, buf.len());

        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -1.5);
        assert_eq!(r.f32s(3).unwrap(), vec![1.0, 2.5, -3.25]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_refuses_to_run_past_the_end() {
        use enc::*;
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        let mut r = Reader::new(&buf);
        let err = r.u64().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A failed read consumes nothing; a count that would overflow the
        // byte length is refused before any allocation.
        assert_eq!(r.remaining(), 4);
        assert!(r.f32s(usize::MAX).is_err());
        assert_eq!(r.u32().unwrap(), 7);
        assert!(r.f32().is_err());
    }
}
