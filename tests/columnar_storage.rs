//! Columnar chunked storage: text-format round-trip identity, scan
//! equivalence against the row-store, and out-of-core training.
//!
//! Three claims are pinned here:
//!
//! 1. `table_to_string` → `table_from_str` is the identity for every value
//!    the storage layer can hold — including adversarial TEXT payloads full
//!    of delimiters, quotes, newlines and `#` — and renders the *same* bytes
//!    whether the rows live in a row-store `Table` or a `ColumnarTable`.
//! 2. Every `TupleScan` order (clustered, permuted, range) over a columnar
//!    table yields tuple-for-tuple the same sequence as the row-store.
//! 3. An epoch-based trainer run over a **paged** columnar table whose
//!    segment cache is far smaller than the dataset produces bit-identical
//!    models to the same run over the in-memory row-store, for both
//!    Clustered and ShuffleOnce scan orders.
//! 4. A paged directory written with frame version 1 (FNV-1a, per-value
//!    codec) still opens, holds byte-for-byte the payloads the current
//!    codec writes, and trains to the same bits as its version-2 rewrite.

use bismarck_core::tasks::SvmTask;
use bismarck_core::{Trainer, TrainerConfig};
use bismarck_linalg::SparseVector;
use bismarck_storage::csv::{table_from_str, tuples_to_string};
use bismarck_storage::{
    Column, ColumnarTable, DataType, ScanOrder, Schema, Table, TupleScan, Value,
};
use bismarck_uda::ConvergenceTest;
use proptest::prelude::*;

fn mixed_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("id", DataType::Int),
        Column::nullable("x", DataType::Double),
        Column::nullable("note", DataType::Text),
        Column::nullable("vec", DataType::DenseVec),
    ])
    .unwrap()
}

/// One nullable value per column of [`mixed_schema`]. TEXT draws from the
/// full printable-ASCII-plus-control alphabet, so quotes, commas,
/// semicolons, leading `#` and embedded newlines all occur.
fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    (
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            (-1_000_000i64..1_000_000).prop_map(Value::Int),
        ],
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            (-1e6f64..1e6).prop_map(Value::Double),
        ],
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            ".{0,12}".prop_map(Value::Text),
            prop::sample::select(vec![
                "null".to_string(),
                "NULL".to_string(),
                String::new(),
                "#comment?".to_string(),
                "a,b;c\"d\\e".to_string(),
                "line\nbreak".to_string(),
            ])
            .prop_map(Value::Text),
        ],
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            prop::collection::vec(-100.0f64..100.0, 1..4).prop_map(Value::from),
        ],
    )
        .prop_map(|(a, b, c, d)| vec![a, b, c, d])
}

fn build_both(rows: &[Vec<Value>], chunk_capacity: usize) -> (Table, ColumnarTable) {
    let mut table = Table::new("t", mixed_schema());
    let mut columnar = ColumnarTable::with_chunk_capacity("t", mixed_schema(), chunk_capacity);
    for row in rows {
        table.insert(row.clone()).unwrap();
        columnar.insert(row.clone()).unwrap();
    }
    (table, columnar)
}

fn all_tuples<S: TupleScan + ?Sized>(source: &S) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    source.scan_tuples(&mut |t| out.push(t.values().to_vec()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `table_to_string` → `table_from_str` is the identity, and the rendered
    /// text is byte-identical between row-store and columnar sources.
    #[test]
    fn text_format_roundtrips_row_and_columnar(
        rows in prop::collection::vec(row_strategy(), 0..24),
        chunk in 1usize..6,
    ) {
        let (table, columnar) = build_both(&rows, chunk);
        let text = tuples_to_string(&table);
        // The rendered text must not depend on the physical layout.
        prop_assert_eq!(&text, &tuples_to_string(&columnar));

        // And parsing it back must be the identity.
        let back = table_from_str("t", mixed_schema(), &text).unwrap();
        let restored = all_tuples(&back);
        prop_assert_eq!(restored, rows);
    }

    /// Clustered, permuted and range scans over a columnar table are
    /// tuple-for-tuple identical to the row-store scans.
    #[test]
    fn scan_orders_match_row_store(
        rows in prop::collection::vec(row_strategy(), 1..40),
        chunk in 1usize..8,
        seed in 0u64..1000,
        bounds in (0usize..45, 0usize..45),
    ) {
        let (table, columnar) = build_both(&rows, chunk);

        prop_assert_eq!(all_tuples(&table), all_tuples(&columnar));

        // A permutation with some out-of-range ids sprinkled in: both
        // scans must visit valid ids in order and skip the rest.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        // Deterministic Fisher-Yates on the seed, no external RNG needed.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order.push(rows.len() + 3); // invalid id: skipped by both
        let mut from_row = Vec::new();
        table.scan_tuples_permuted(&order, &mut |t| from_row.push(t.values().to_vec()));
        let mut from_col = Vec::new();
        columnar.scan_tuples_permuted(&order, &mut |t| from_col.push(t.values().to_vec()));
        prop_assert_eq!(from_row, from_col);

        let (start, end) = bounds;
        let mut from_row = Vec::new();
        table.scan_tuples_range(start, end, &mut |t| from_row.push(t.values().to_vec()));
        let mut from_col = Vec::new();
        columnar.scan_tuples_range(start, end, &mut |t| from_col.push(t.values().to_vec()));
        prop_assert_eq!(from_row, from_col);
    }
}

/// Out-of-core acceptance: training an SVM over a paged columnar table whose
/// chunk cache holds a fraction of the segments produces **bit-identical**
/// models to the in-memory row-store, under both Clustered and ShuffleOnce.
#[test]
fn paged_training_is_bit_identical_to_row_store() {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("vec", DataType::DenseVec),
        Column::new("label", DataType::Double),
    ])
    .unwrap();

    const ROWS: usize = 3_000;
    const CHUNK: usize = 128; // ~24 segments
    const CACHE: usize = 3; // far fewer than the sealed segment count

    let mut table = Table::new("d", schema.clone());
    for i in 0..ROWS {
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let noise = ((i * 37) % 101) as f64 / 101.0 - 0.5;
        table
            .insert(vec![
                Value::Int(i as i64),
                Value::from(vec![y * 2.0 + noise, -y + noise, noise]),
                Value::Double(y),
            ])
            .unwrap();
    }

    let dir =
        std::env::temp_dir().join(format!("bismarck_paged_train_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut paged = ColumnarTable::create_paged("d", schema, &dir, CHUNK, CACHE).unwrap();
    for tuple in table.scan() {
        paged.insert(tuple.values().to_vec()).unwrap();
    }
    paged.flush().unwrap();
    assert!(
        paged.segment_count() > CACHE * 4,
        "dataset must dwarf the chunk cache for this test to mean anything"
    );

    let task = SvmTask::new(1, 2, 3);
    for order in [ScanOrder::Clustered, ScanOrder::ShuffleOnce { seed: 7 }] {
        let config = TrainerConfig::default()
            .with_scan_order(order)
            .with_convergence(ConvergenceTest::FixedEpochs(6));
        let from_rows = Trainer::new(&task, config.clone()).train(&table);
        let from_paged = Trainer::new(&task, config).train(&paged);
        let row_bits: Vec<u64> = from_rows.model.iter().map(|w| w.to_bits()).collect();
        let paged_bits: Vec<u64> = from_paged.model.iter().map(|w| w.to_bits()).collect();
        assert_eq!(
            row_bits, paged_bits,
            "paged columnar training diverged from row-store under {order:?}"
        );
        assert!(from_rows.model.iter().any(|w| *w != 0.0));
    }

    // The scan genuinely paged: the cache saw misses and evictions.
    let stats = paged.pager_stats().unwrap();
    assert!(stats.misses > 0, "expected paging activity: {stats:?}");
    assert!(stats.evictions > 0, "expected evictions: {stats:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A paged table reopened from disk serves the same tuples it was built
/// with — the scan surface works straight off the on-disk segments.
#[test]
fn reopened_paged_table_scans_identically() {
    let schema = mixed_schema();
    let dir =
        std::env::temp_dir().join(format!("bismarck_paged_reopen_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut paged = ColumnarTable::create_paged("t", schema.clone(), &dir, 4, 2).unwrap();
    let rows: Vec<Vec<Value>> = (0..37)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Double(i as f64 * 0.5),
                Value::Text(format!("row #{i}, \"quoted\"\nline")),
                Value::from(vec![i as f64, -(i as f64)]),
            ]
        })
        .collect();
    for row in &rows {
        paged.insert(row.clone()).unwrap();
    }
    paged.flush().unwrap();
    drop(paged);

    let reopened = ColumnarTable::open_paged(&dir, 2).unwrap();
    assert_eq!(reopened.len(), rows.len());
    assert_eq!(all_tuples(&reopened), rows);

    std::fs::remove_dir_all(&dir).ok();
}

/// Every chunk layout, each with NULLs (plus an `INT` in a `DOUBLE` column
/// beyond 2^53, empty vectors and an empty string), and a non-null
/// `vec`/`label` pair to train on.
fn fixture_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("id", DataType::Int),
        Column::new("label", DataType::Double),
        Column::nullable("x", DataType::Double),
        Column::nullable("note", DataType::Text),
        Column::new("vec", DataType::DenseVec),
        Column::nullable("dv", DataType::DenseVec),
        Column::nullable("sv", DataType::SparseVec),
        Column::nullable("seq", DataType::Sequence),
    ])
    .unwrap()
}

fn fixture_row(i: usize) -> Vec<Value> {
    let y = if i.is_multiple_of(2) { 1.0 } else { -1.0 };
    let unless = |null: bool, value: Value| if null { Value::Null } else { value };
    let note = if i == 5 {
        String::new()
    } else {
        format!("n{i},\"q\"")
    };
    let sparse = if i == 3 {
        SparseVector::new()
    } else {
        SparseVector::from_pairs(vec![(i, 1.5), (i + 7, -2.0)])
    };
    let sequence = vec![(SparseVector::from_pairs(vec![(0, 1.0)]), i as u32)];
    vec![
        unless(i == 1, Value::Int(i as i64 - 2)),
        Value::Double(y),
        match i {
            0 | 3 => Value::Null,
            4 => Value::Int((1 << 53) + 1),
            _ => Value::Double(i as f64 * -0.25),
        },
        unless(i == 2, Value::Text(note)),
        Value::from(vec![y * 2.0 + i as f64 * 0.125, -y]),
        unless(
            i % 2 == 1,
            Value::from(if i == 4 { vec![] } else { vec![i as f64] }),
        ),
        unless(i == 0, Value::SparseVec(sparse)),
        unless(i == 1 || i == 5, Value::Sequence(sequence)),
    ]
}

/// `create_paged("fixture", fixture_schema(), dir, 4, 2)`, rows 0..6
/// inserted, `flush` — as written by the commit before frame version 2.
const V1_FIXTURE: [(&str, &str); 3] = [
    (
        "columnar.meta",
        "42434f4c018d0000000000000007000000000000006669787475726508000000000000000200000000000000\
        6964000105000000000000006c6162656c0100010000000000000078010104000000000000006e6f74650201\
        0300000000000000766563030002000000000000006476030102000000000000007376040103000000000000\
        00736571050104000000000000000600000000000000a95e56ca68e671f6",
    ),
    (
        "seg-000000.col",
        "4253454701a60200000000000004000000000000000800000000000000000400000000000000feffffffffff\
        ffff00000000000000000000000000000000010000000000000004000000000000000d000000000000000104\
        00000000000000000000000000f03f000000000000f0bf000000000000f03f000000000000f0bf0400000000\
        0000000f0000000000000000000000000000000104000000000000000000000000000000000000000000d0bf\
        000000000000e0bf000000000000000004000000000000000600000000000000000000000000000002120000\
        00000000006e302c2271226e312c2271226e332c227122050000000000000000000000060000000c0000000c\
        0000001200000004000000000000000b00000000000000030800000000000000000000000000004000000000\
        0000f0bf000000000000febf000000000000f03f0000000000000240000000000000f0bf000000000000fabf\
        000000000000f03f050000000000000000000000020000000400000006000000080000000400000000000000\
        0f00000000000000030200000000000000000000000000000000000000000000400500000000000000000000\
        0001000000010000000200000002000000040000000000000005000000000000000404000000000000000100\
        00000800000002000000090000000400000000000000000000000000f83f00000000000000c0000000000000\
        f83f00000000000000c005000000000000000000000000000000020000000400000004000000040000000000\
        00000e0000000000000005040000000000000006010000000000000001000000000000000000000000000000\
        0000f03f0000000000060100000000000000010000000000000000000000000000000000f03f020000000601\
        00000000000000010000000000000000000000000000000000f03f03000000a6dba6ef326d8fbb",
    ),
    (
        "seg-000001.col",
        "4253454701e40100000000000002000000000000000800000000000000000200000000000000020000000000\
        0000030000000000000002000000000000000300000000000000010200000000000000000000000000f03f00\
        0000000000f0bf02000000000000000300000000000000000000000000000001020000000000000000000000\
        00004043000000000000f4bf0200000000000000030000000000000001000000000000000000000001000000\
        000020000206000000000000006e342c22712203000000000000000000000006000000060000000200000000\
        00000003000000000000000304000000000000000000000000000440000000000000f0bf000000000000f6bf\
        000000000000f03f030000000000000000000000020000000400000002000000000000000300000000000000\
        0300000000000000000300000000000000000000000000000000000000020000000000000001000000000000\
        00040400000000000000040000000b000000050000000c0000000400000000000000000000000000f83f0000\
        0000000000c0000000000000f83f00000000000000c003000000000000000000000002000000040000000200\
        0000000000000300000000000000050200000000000000060100000000000000010000000000000000000000\
        000000000000f03f0400000000b9ea99154f53b475",
    ),
];

/// A version-1 directory opens and scans the rows it was built from; the
/// current codec writes byte-for-byte the same payloads (only the frame's
/// version byte and checksum differ); training over either gives the same
/// bits; and a version-1 directory keeps accepting inserts, its rewritten
/// files coming out as version 2 beside the untouched version-1 segment.
#[test]
fn version_1_directory_opens_scans_and_trains_like_its_version_2_rewrite() {
    let unhex = |text: &str| -> Vec<u8> {
        let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    };
    let temp = |name: &str| {
        let dir = std::env::temp_dir().join(format!(
            "bismarck_paged_fixture_{name}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    };
    let rows: Vec<Vec<Value>> = (0..9).map(fixture_row).collect();

    let v1_dir = temp("v1");
    for (file, hex) in V1_FIXTURE {
        std::fs::write(v1_dir.join(file), unhex(hex)).unwrap();
    }
    let mut v1 = ColumnarTable::open_paged(&v1_dir, 2).unwrap();
    assert_eq!((v1.name(), v1.chunk_capacity()), ("fixture", 4));
    assert_eq!(all_tuples(&v1), rows[..6]);

    let v2_dir = temp("v2");
    let mut v2 = ColumnarTable::create_paged("fixture", fixture_schema(), &v2_dir, 4, 2).unwrap();
    v2.insert_all(rows[..6].iter().cloned()).unwrap();
    v2.flush().unwrap();
    for (file, hex) in V1_FIXTURE {
        let (old, new) = (unhex(hex), std::fs::read(v2_dir.join(file)).unwrap());
        assert_eq!((old[4], new[4]), (1, 2), "{file}: frame versions");
        assert_eq!(old[..4], new[..4], "{file}: magic");
        assert_eq!(
            old[5..old.len() - 8],
            new[5..new.len() - 8],
            "{file}: payload length and payload must be byte-identical"
        );
        assert_ne!(
            old[old.len() - 8..],
            new[new.len() - 8..],
            "{file}: checksum"
        );
    }

    let task = SvmTask::new(4, 1, 2);
    let train = |table: &ColumnarTable| -> Vec<u64> {
        let config = TrainerConfig::default().with_convergence(ConvergenceTest::FixedEpochs(3));
        let trained = Trainer::new(&task, config).train(table);
        trained.model.iter().map(|w| w.to_bits()).collect()
    };
    let v2 = ColumnarTable::open_paged(&v2_dir, 2).unwrap();
    assert_eq!(train(&v1), train(&v2));
    assert!(train(&v1).iter().any(|&bits| f64::from_bits(bits) != 0.0));

    // Inserts into the version-1 directory: the tail and manifest are
    // rewritten as version 2, sealed segment 0 stays version 1 on disk.
    v1.insert_all(rows[6..].iter().cloned()).unwrap();
    v1.flush().unwrap();
    drop(v1);
    let version = |file: &str| std::fs::read(v1_dir.join(file)).unwrap()[4];
    assert_eq!(
        [
            "seg-000000.col",
            "seg-000001.col",
            "seg-000002.col",
            "columnar.meta"
        ]
        .map(version),
        [1, 2, 2, 2]
    );
    assert_eq!(
        all_tuples(&ColumnarTable::open_paged(&v1_dir, 1).unwrap()),
        rows
    );

    std::fs::remove_dir_all(&v1_dir).ok();
    std::fs::remove_dir_all(&v2_dir).ok();
}
