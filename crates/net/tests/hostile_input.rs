//! Seeded mutation test over the two decoders that read bytes a peer
//! controls: [`read_frame`] and [`Message::decode`]. Every input is cut
//! at every prefix length, hit with random bit flips, and given forged
//! lengths and counts (`u32::MAX`, `usize::MAX`, one past `usize::MAX`).
//! Whatever the input:
//!
//! - no decoder panics;
//! - no frame allocates beyond [`MAX_FRAME`] — a counting global
//!   allocator records the largest single request.
//!
//! The third hostile decoder, `decode_shard`, gets the same treatment in
//! `idld_campaign::shard`'s own tests, where every mutated `.part` must
//! be an `Err`. This file holds a single test so the allocator's
//! high-water mark belongs to it alone.

use idld_net::{read_frame, write_frame, FrameError, JobSpec, Message, MAX_FRAME};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Flips bit `bit` of byte `pos`.
fn flipped(bytes: &[u8], pos: usize, bit: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[pos] ^= 1 << bit;
    out
}

/// Runs `read_frame` over `bytes`; it must not panic.
fn frame_of(bytes: &[u8]) -> Result<String, FrameError> {
    read_frame(&mut Cursor::new(bytes))
}

/// Runs `Message::decode` over `bytes` the way the service does (frame
/// payloads are UTF-8 first); it must not panic.
fn message_of(bytes: &[u8]) -> Result<Message, String> {
    Message::decode(std::str::from_utf8(bytes).map_err(|e| e.to_string())?)
}

#[test]
fn mutated_frames_and_messages_never_panic_or_overallocate() {
    const FORGED: [&str; 4] = [
        "4294967295",           // u32::MAX
        "18446744073709551615", // usize::MAX
        "18446744073709551616", // usize::MAX + 1
        "-1",
    ];
    let mut rng = SmallRng::seed_from_u64(0x1d1d_f022);
    // An artifact-sized body: the decoders never look inside it.
    let part: String = (0..2000).map(|i| format!("row {i}\n")).collect();

    // --- protocol messages: no panic on any mutation. ---
    let spec = JobSpec {
        shard: 1,
        shards: 2,
        runs_per_cell: 2,
        seed: 0x1d1d,
        sweep: "grid".to_string(),
        workloads: "crc32".to_string(),
        scale: 1,
        smt: false,
    };
    let messages = [
        idld_net::hello(),
        Message::Welcome { shards: 2 },
        Message::Next,
        Message::Job(spec),
        Message::Done,
        Message::Beat,
        Message::Progress {
            shard: 1,
            completed: 3,
            total: 6,
        },
        Message::Artifact {
            shard: 1,
            body: part.clone(),
        },
        Message::ArtifactOk { shard: 1 },
        Message::ArtifactDup { shard: 1 },
        Message::Error {
            msg: "refused".to_string(),
        },
    ];
    for msg in &messages {
        let wire = msg.encode();
        let bytes = wire.as_bytes();
        for cut in 0..bytes.len() {
            let _ = message_of(&bytes[..cut]);
        }
        for _ in 0..64 {
            let (pos, bit) = (rng.gen_range(0..bytes.len()), rng.gen_range(0..8));
            let _ = message_of(&flipped(bytes, pos, bit));
        }
        // Every numeric field, forged.
        for line in wire.lines().take_while(|l| *l != "body:") {
            let Some((key, value)) = line.split_once(' ') else {
                continue;
            };
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                continue;
            }
            for forged in FORGED {
                let text = wire.replacen(line, &format!("{key} {forged}"), 1);
                let got = Message::decode(&text);
                if matches!(forged, "18446744073709551616" | "-1") {
                    assert!(got.is_err(), "{key} {forged} decoded as {got:?}");
                }
            }
        }
    }

    // --- frames: truncation, flips, forged length prefixes. ---
    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        &Message::Artifact {
            shard: 1,
            body: part,
        }
        .encode(),
    )
    .expect("frame");
    for cut in 0..frame.len() {
        assert!(frame_of(&frame[..cut]).is_err(), "frame prefix {cut}");
    }
    for _ in 0..256 {
        let (pos, bit) = (rng.gen_range(0..frame.len()), rng.gen_range(0..8));
        let bad = flipped(&frame, pos, bit);
        match frame_of(&bad) {
            Ok(payload) => {
                let _ = Message::decode(&payload);
            }
            Err(FrameError::Io(e)) => panic!("in-memory read failed: {e}"),
            Err(_) => {}
        }
    }
    LARGEST.store(0, Ordering::Relaxed);
    for len in [u32::MAX, MAX_FRAME as u32 + 1, MAX_FRAME as u32, 1 << 24] {
        let mut forged = len.to_be_bytes().to_vec();
        forged.extend_from_slice(&frame[4..frame.len().min(4 + 4096)]);
        let err = frame_of(&forged).expect_err("forged length");
        if len as usize > MAX_FRAME {
            assert!(matches!(err, FrameError::Oversized(_)), "{len}: {err}");
        } else {
            assert!(matches!(err, FrameError::Truncated), "{len}: {err}");
        }
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= MAX_FRAME,
        "a forged frame allocated {largest} bytes"
    );
    // Stronger than the cap: a short stream costs what it carried.
    assert!(
        largest < 1 << 20,
        "a forged frame allocated {largest} bytes"
    );
}
