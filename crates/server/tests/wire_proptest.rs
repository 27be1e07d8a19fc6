//! Adversarial decoding properties: whatever bytes arrive — truncated,
//! bit-flipped, or pure noise — the wire layer must return a typed
//! outcome.  Never a panic, and never an allocation beyond the input's
//! own size (a hostile length prefix must not balloon memory).

use ids_api::RowSink;
use ids_server::wire::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, FrameOutcome, ReadView,
    Reply, Request, RowsWriter, WireError, WireOutcome, WriteView, FRAME_HEADER_LEN, WIRE_VERSION,
};

use proptest::prelude::*;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single allocation request made on this thread since
    /// it was set to `Some(0)`; `None` = this thread is not measuring.
    /// Per thread, so tests running concurrently in this binary cannot
    /// pollute each other's reading.
    static LARGEST_REQUEST: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The system allocator, noting each request's size on a measuring
/// thread — what lets this file check the bound its header promises.
struct Counting;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST_REQUEST.try_with(|largest| {
        if let Some(seen) = largest.get() {
            largest.set(Some(seen.max(size)));
        }
    });
}

// SAFETY: every method hands its arguments, unchanged, to `System` —
// the caller's `GlobalAlloc` contract is exactly the one `System` needs
// — and `note` only reads and writes a `Cell` (it never allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: see the impl.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the largest single allocation it
/// requested.
fn largest_request_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.with(|largest| largest.set(Some(0)));
    let result = f();
    let largest = LARGEST_REQUEST.with(|largest| largest.take());
    (result, largest.expect("measuring"))
}

/// A decoder reduced to its refusal, so requests and replies share a type.
type Refusal = fn(&[u8]) -> Option<(u64, WireError)>;

/// Every position of the protocol that carries a count, as `(name, its
/// decoder, the payload bytes leading up to the count)` — request id 7
/// first.
fn count_positions() -> Vec<(&'static str, Refusal, Vec<u8>)> {
    use ids_relational::codec::Encoder;
    let lead = |kind: u8, body: &dyn Fn(&mut Encoder)| {
        let mut e = Encoder::new();
        e.put_u64(7);
        e.put_u8(kind);
        body(&mut e);
        e.into_bytes()
    };
    let request: Refusal = |payload| decode_request(payload).err();
    let reply: Refusal = |payload| decode_reply(payload).err();
    vec![
        ("Insert.values", request, lead(2, &|e| e.put_str("CT"))),
        ("Remove.values", request, lead(3, &|e| e.put_str("CT"))),
        ("Query.filters", request, lead(4, &|e| e.put_str(""))),
        (
            "Query.select",
            request,
            lead(4, &|e| {
                e.put_str("");
                e.put_u32(0);
                e.put_u8(1);
            }),
        ),
        ("Subscribe.cursors", request, lead(9, &|_| {})),
        ("Join.relations", request, lead(10, &|_| {})),
        (
            "Alter.AddRelation.columns",
            request,
            lead(11, &|e| {
                e.put_u8(0);
                e.put_str("TD");
            }),
        ),
        ("Hello.relations", reply, lead(0, &|e| e.put_u16(1))),
        (
            "Hello.relations.columns",
            reply,
            lead(0, &|e| {
                e.put_u16(1);
                e.put_u32(1);
                e.put_str("CT");
            }),
        ),
        ("Rows.columns", reply, lead(4, &|_| {})),
        ("Rows.rows", reply, lead(4, &|e| e.put_u32(0))),
        (
            "Rows.rows.row",
            reply,
            lead(4, &|e| {
                e.put_u32(0);
                e.put_u32(1);
            }),
        ),
        ("Snapshot.counts", reply, lead(6, &|_| {})),
        (
            "Frames.frames",
            reply,
            lead(10, &|e| {
                e.put_u16(0);
                e.put_u64(2);
                e.put_u64(42);
            }),
        ),
        ("Stats.counters", reply, lead(9, &|_| {})),
        ("Stats.gauges", reply, lead(9, &|e| e.put_u32(0))),
        (
            "Stats.histograms",
            reply,
            lead(9, &|e| {
                e.put_u32(0);
                e.put_u32(0);
            }),
        ),
        (
            "Stats.histograms.buckets",
            reply,
            lead(9, &|e| {
                e.put_u32(0);
                e.put_u32(0);
                e.put_u32(1);
                e.put_str("wal.fsync_ns");
                e.put_u64(5);
                e.put_u64(999);
            }),
        ),
        (
            "Stats.events",
            reply,
            lead(9, &|e| {
                e.put_u32(0);
                e.put_u32(0);
                e.put_u32(0);
            }),
        ),
    ]
}

/// A count that lies — `u32::MAX` entries, then 1 MiB of padding — at
/// every count-bearing position: decoding is refused as `Malformed`, and
/// no single allocation on the way exceeds the payload itself.  (An
/// entry of `Vec<(String, String)>` is 48 bytes in memory: a guard that
/// bounds *entries* by *bytes* remaining reserves 48 MiB here.)
#[test]
fn a_lying_count_never_reserves_more_than_the_payload() {
    for (position, decode, mut payload) in count_positions() {
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.resize(payload.len() + (1 << 20), 0xff);
        let (refusal, largest) = largest_request_during(|| decode(&payload));
        assert!(
            matches!(refusal, Some((7, WireError::Malformed(_)))),
            "{position}: a lying count must be Malformed, got {refusal:?}"
        );
        assert!(
            largest <= payload.len(),
            "{position}: one allocation of {largest} bytes for a {}-byte payload",
            payload.len()
        );
    }
}

/// A small pool of well-formed messages to mutate.
fn seed_frames() -> Vec<Vec<u8>> {
    vec![
        encode_request(
            1,
            &Request::Hello {
                version: WIRE_VERSION,
            },
        ),
        encode_request(
            2,
            &Request::Insert {
                relation: "CT".into(),
                values: vec!["CS402".into(), "Jones".into()],
            },
        ),
        encode_request(
            3,
            &Request::Query {
                relation: "CT".into(),
                filters: vec![("course".into(), "CS402".into())],
                select: Some(vec!["teacher".into()]),
            },
        ),
        encode_reply(
            4,
            &Reply::Rows {
                columns: vec!["course".into()],
                rows: vec![vec!["CS402".into()]],
            },
        ),
        encode_reply(
            5,
            &Reply::Insert(WireOutcome::Rejected {
                violated: Some("C -> T".into()),
            }),
        ),
        // A populated stats reply: mutations of this frame exercise the
        // snapshot decoder's count caps and event-tag validation.
        encode_reply(
            6,
            &Reply::Stats(ids_obs::MetricsSnapshot {
                counters: vec![("server.shed".into(), 3)],
                gauges: vec![("server.connections".into(), 2)],
                histograms: vec![(
                    "wal.fsync_ns".into(),
                    ids_obs::HistogramSnapshot {
                        buckets: vec![1, 0, 4],
                        count: 5,
                        sum_ns: 999,
                    },
                )],
                events: vec![ids_obs::EventRecord {
                    seq: 0,
                    at: std::time::Duration::from_nanos(42),
                    event: ids_obs::Event::OverloadShed { connection: 1 },
                }],
                poisoned: None,
            }),
        ),
        // The replication kinds: mutations exercise the cursor-list and
        // frame-list decoders (nested length prefixes).
        encode_request(
            7,
            &Request::Subscribe {
                cursors: vec![(1, 42), (3, 0)],
                names: 17,
            },
        ),
        encode_reply(
            8,
            &Reply::Frames {
                relation: 0,
                gen: 2,
                tip: 42,
                frames: vec![vec![1, 2, 3], vec![]],
            },
        ),
    ]
}

/// Drives the full receive path on arbitrary bytes: framing first,
/// then payload decoding.  The only allowed outcomes are typed.
fn receive(bytes: &[u8]) {
    match read_frame(bytes) {
        FrameOutcome::Complete { payload, .. } => {
            // Both decoders must be total on any checksum-valid payload.
            let _ = decode_request(payload);
            let _ = decode_reply(payload);
        }
        FrameOutcome::Torn | FrameOutcome::CrcMismatch | FrameOutcome::Oversize => {}
    }
}

/// Short strings over ASCII and multi-byte UTF-8 (2-, 3- and 4-byte
/// characters), the empty string included.
fn text() -> impl Strategy<Value = String> {
    let chars = vec!['a', 'Z', '0', ' ', '\0', 'é', 'ß', '日', '本', '🦀'];
    proptest::collection::vec(proptest::sample::select(chars), 0..6)
        .prop_map(|chars| chars.into_iter().collect())
}

/// The server runs a string write from its [`WriteView`], a second
/// statement of the `Insert` and `Remove` layouts: on `payload` the view
/// must accept exactly what `decode_request` decodes to one of the two,
/// with the same id, relation and values — and never panic.
fn view_agrees_with_the_decoder(payload: &[u8]) {
    let decoded = match decode_request(payload) {
        Ok((id, Request::Insert { relation, values })) => Some((id, false, relation, values)),
        Ok((id, Request::Remove { relation, values })) => Some((id, true, relation, values)),
        _ => None,
    };
    let viewed = WriteView::parse(payload).map(|view| {
        let values = view.values().map(str::to_string).collect::<Vec<_>>();
        (view.id, view.remove, view.relation.to_string(), values)
    });
    assert_eq!(viewed, decoded, "payload {payload:?}");
}

/// One string write as a frame payload: an id, `Insert` or `Remove`, a
/// relation name and zero to four values.
fn write_payload() -> impl Strategy<Value = Vec<u8>> {
    let values = proptest::collection::vec(text(), 0..5);
    (0u64..u64::MAX, proptest::bool::ANY, text(), values).prop_map(
        |(id, remove, relation, values)| {
            let req = if remove {
                Request::Remove { relation, values }
            } else {
                Request::Insert { relation, values }
            };
            encode_request(id, &req)[FRAME_HEADER_LEN..].to_vec()
        },
    )
}

/// The server runs a string `Query`, `Count` or `Join` from its
/// [`ReadView`], a third statement of those layouts: on `payload` the
/// view must accept exactly what `decode_request` decodes to one of the
/// three, with the same id and names — and never panic.
fn read_view_agrees_with_the_decoder(payload: &[u8]) {
    let decoded = match decode_request(payload) {
        Ok((id, req @ (Request::Query { .. } | Request::Count { .. } | Request::Join { .. }))) => {
            Some((id, req))
        }
        _ => None,
    };
    let owned = |names: ids_server::wire::Names<'_>| names.iter().map(str::to_string).collect();
    let viewed = ReadView::parse(payload).map(|(id, view)| {
        let req = match view {
            ReadView::Query {
                relation,
                filters,
                select,
            } => Request::Query {
                relation: relation.to_string(),
                filters: (filters.pairs())
                    .map(|(c, v)| (c.to_string(), v.to_string()))
                    .collect(),
                select: select.map(owned),
            },
            ReadView::Count { relation } => Request::Count {
                relation: relation.to_string(),
            },
            ReadView::Join { relations } => Request::Join {
                relations: owned(relations),
            },
        };
        (id, req)
    });
    assert_eq!(viewed, decoded, "payload {payload:?}");
}

/// One string read as a frame payload: an id, then a `Query` (zero to
/// three filters, an optional select of zero to three columns), a
/// `Count` or a `Join` of zero to three relations.
fn read_payload() -> impl Strategy<Value = Vec<u8>> {
    let names = || proptest::collection::vec(text(), 0..4);
    let filters = proptest::collection::vec((text(), text()), 0..4);
    let select = (proptest::bool::ANY, names());
    (0u64..u64::MAX, 0u8..3, text(), filters, select).prop_map(
        |(id, kind, relation, filters, (some, names))| {
            let req = match kind {
                0 => Request::Query {
                    relation,
                    filters,
                    select: some.then_some(names),
                },
                1 => Request::Count { relation },
                _ => Request::Join { relations: names },
            };
            encode_request(id, &req)[FRAME_HEADER_LEN..].to_vec()
        },
    )
}

/// Every single-byte substitution of a few fixed reads — each list
/// empty and not, the select absent and present — is judged alike by
/// the read view and the decoder: the view's tag and option bytes are
/// pinned value by value, not only where a random flip lands.
#[test]
fn every_byte_value_of_sample_reads_is_pinned() {
    let names = |n: &[&str]| n.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let reads = [
        Request::Query {
            relation: "R".into(),
            filters: vec![("a".into(), "k7".into())],
            select: None,
        },
        Request::Query {
            relation: "R".into(),
            filters: Vec::new(),
            select: Some(names(&["b", "a"])),
        },
        Request::Count {
            relation: "R".into(),
        },
        Request::Join {
            relations: names(&["S", "T"]),
        },
    ];
    for req in reads {
        let payload = encode_request(3, &req)[FRAME_HEADER_LEN..].to_vec();
        for pos in 0..payload.len() {
            for byte in 0..=255u8 {
                let mut changed = payload.clone();
                changed[pos] = byte;
                read_view_agrees_with_the_decoder(&changed);
            }
        }
    }
}

/// A request id, then the columns and rows of a `Rows` reply: zero to
/// three columns, zero to four rows, every row as wide as the columns.
fn rows_reply() -> impl Strategy<Value = (u64, Vec<String>, Vec<Vec<String>>)> {
    (0u64..u64::MAX, 0usize..4, 0usize..5).prop_flat_map(|(id, width, len)| {
        (
            Just(id),
            proptest::collection::vec(text(), width),
            proptest::collection::vec(proptest::collection::vec(text(), width), len),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The server streams `Query`/`Join` rows through `RowsWriter`, a
    /// second statement of the `Rows` layout: fed the rows as the
    /// database's row visitor feeds it, after bytes already in the
    /// buffer, it writes exactly the frame `encode_reply` builds from the
    /// same `Reply::Rows` — and that frame decodes back to it.
    #[test]
    fn streamed_rows_are_the_encoded_reply_byte_for_byte(
        (id, columns, rows) in rows_reply()
    ) {
        let earlier = b"an earlier reply".to_vec();
        let mut out = earlier.clone();
        let mut writer = RowsWriter::new(&mut out, id);
        writer.start(&columns.clone().into(), rows.len());
        for row in &rows {
            writer.row();
            for value in row {
                writer.value(value);
            }
        }
        writer.finish();
        prop_assert_eq!(&out[..earlier.len()], &earlier[..]);
        let streamed = &out[earlier.len()..];
        let reply = Reply::Rows { columns, rows };
        prop_assert_eq!(streamed, &encode_reply(id, &reply)[..]);
        let FrameOutcome::Complete { payload, rest } = read_frame(streamed) else {
            panic!("a streamed reply must be one complete frame");
        };
        prop_assert!(rest.is_empty());
        prop_assert_eq!(decode_reply(payload).unwrap(), (id, reply));
    }

    /// The view and the decoder agree on every valid write, on every
    /// truncation of it, and on every byte of it flipped by `flip`.
    #[test]
    fn the_write_view_is_pinned_to_the_decoder(
        payload in write_payload(),
        flip in 1u8..=255,
    ) {
        view_agrees_with_the_decoder(&payload);
        for cut in 0..payload.len() {
            view_agrees_with_the_decoder(&payload[..cut]);
        }
        for pos in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[pos] ^= flip;
            view_agrees_with_the_decoder(&flipped);
        }
    }

    /// ... and on arbitrary payloads, those that start like a write (an
    /// id, then the `Insert` or `Remove` tag) among them.
    #[test]
    fn the_write_view_agrees_on_arbitrary_payloads(
        body in proptest::collection::vec(0u8..=255, 0..64),
        tag in 2u8..4,
    ) {
        view_agrees_with_the_decoder(&body);
        let mut write = 7u64.to_le_bytes().to_vec();
        write.push(tag);
        write.extend(&body);
        view_agrees_with_the_decoder(&write);
    }

    /// The read view and the decoder agree on every valid read, on
    /// every truncation of it, and on every byte of it flipped by `flip`.
    #[test]
    fn the_read_view_is_pinned_to_the_decoder(
        payload in read_payload(),
        flip in 1u8..=255,
    ) {
        read_view_agrees_with_the_decoder(&payload);
        for cut in 0..payload.len() {
            read_view_agrees_with_the_decoder(&payload[..cut]);
        }
        for pos in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[pos] ^= flip;
            read_view_agrees_with_the_decoder(&flipped);
        }
    }

    /// ... and on arbitrary payloads, those that start like a read (an
    /// id, then the `Query`, `Count` or `Join` tag) among them.
    #[test]
    fn the_read_view_agrees_on_arbitrary_payloads(
        body in proptest::collection::vec(0u8..=255, 0..64),
        tag in proptest::sample::select(vec![4u8, 5, 10]),
    ) {
        read_view_agrees_with_the_decoder(&body);
        let mut read = 7u64.to_le_bytes().to_vec();
        read.push(tag);
        read.extend(&body);
        read_view_agrees_with_the_decoder(&read);
    }

    /// Pure noise never panics the receive path.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        receive(&bytes);
    }

    /// A valid frame with any prefix truncated is torn or corrupt —
    /// typed, not a panic.
    #[test]
    fn truncations_are_typed(seed in 0usize..8, cut in 0usize..200) {
        let frame = &seed_frames()[seed];
        let cut = cut.min(frame.len());
        receive(&frame[..cut]);
    }

    /// Any single flipped byte in a valid frame is caught: either the
    /// CRC refuses the frame, or (if the flip lands so that framing
    /// still passes — it cannot, for a single flip, but the property
    /// holds regardless) the payload decodes to a typed outcome.
    #[test]
    fn bit_flips_are_typed(seed in 0usize..8, pos in 0usize..200, flip in 1u8..=255) {
        let mut frame = seed_frames()[seed].clone();
        let pos = pos % frame.len();
        frame[pos] ^= flip;
        receive(&frame);
        // A flip strictly inside the message leaves length intact, so
        // the frame is complete — and must then fail its checksum.
        if pos >= 4 {
            assert!(
                !matches!(read_frame(&frame), FrameOutcome::Complete { .. }),
                "crc must catch a payload flip at byte {pos}"
            );
        }
    }

    /// Checksum-valid payloads with an arbitrary *body* decode totally:
    /// a syntactically valid frame around hostile contents yields a
    /// message or a typed Malformed — and allocation stays bounded by
    /// the payload length even when length prefixes inside lie.
    #[test]
    fn hostile_payloads_decode_totally(body in proptest::collection::vec(0u8..=255, 0..128)) {
        let framed = ids_wal::format::frame(&body);
        let FrameOutcome::Complete { payload, .. } = read_frame(&framed) else {
            panic!("frame() must produce a complete frame");
        };
        let _ = decode_request(payload);
        let _ = decode_reply(payload);
    }
}
