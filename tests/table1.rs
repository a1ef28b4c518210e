//! Integration test for Table 1: the simulated processor configurations carry
//! exactly the parameters the paper lists.

use sdv::core::DvConfig;
use sdv::sim::{PortKind, Table1, UarchConfig};

#[test]
fn four_way_matches_table1() {
    let cfg = UarchConfig::four_way(1, PortKind::Wide);
    assert_eq!(cfg.fetch_width, 4);
    assert_eq!(cfg.issue_width, 4);
    assert_eq!(cfg.commit_width, 4);
    assert_eq!(cfg.rob_size, 128);
    assert_eq!(cfg.lsq_size, 32);
    assert_eq!(cfg.scalar_fus.int_alu.count, 3);
    assert_eq!(cfg.scalar_fus.int_mul.count, 2);
    assert_eq!(cfg.scalar_fus.fp_add.count, 2);
    assert_eq!(cfg.scalar_fus.fp_mul.count, 1);
    assert_eq!(cfg.scalar_fus.int_div_latency, 12);
    assert_eq!(cfg.scalar_fus.fp_div_latency, 14);
    assert_eq!(cfg.memory.l1d.size_bytes, 64 * 1024);
    assert_eq!(cfg.memory.l1d.line_bytes, 32);
    assert_eq!(cfg.memory.l1d.ways, 2);
    assert_eq!(cfg.memory.l1i.line_bytes, 64);
    assert_eq!(cfg.memory.l2.size_bytes, 256 * 1024);
    assert_eq!(cfg.memory.l2.ways, 4);
    assert_eq!(cfg.memory.max_outstanding_misses, 16);
    assert_eq!(cfg.predictor.gshare_entries, 64 * 1024);
}

#[test]
fn eight_way_matches_table1() {
    let cfg = UarchConfig::eight_way(4, PortKind::Scalar);
    assert_eq!(cfg.fetch_width, 8);
    assert_eq!(cfg.rob_size, 256);
    assert_eq!(cfg.lsq_size, 64);
    assert_eq!(cfg.scalar_fus.int_alu.count, 6);
    assert_eq!(cfg.scalar_fus.int_mul.count, 3);
    assert_eq!(cfg.scalar_fus.fp_add.count, 4);
    assert_eq!(cfg.scalar_fus.fp_mul.count, 2);
    assert_eq!(cfg.dcache_ports, 4);
}

#[test]
fn vectorization_hardware_matches_section_4_1() {
    let dv = DvConfig::default();
    assert_eq!(dv.vector_registers, 128);
    assert_eq!(dv.vector_length, 4);
    assert_eq!(dv.tl_sets, 512);
    assert_eq!(dv.tl_ways, 4);
    assert_eq!(dv.vrmt_sets, 64);
    assert_eq!(dv.vrmt_ways, 4);
    assert_eq!(dv.vector_file_bytes(), 4 * 1024);
    assert_eq!(dv.vrmt_bytes(), 4608);
    assert_eq!(dv.tl_bytes(), 49152);
    // §4.1 rounds the 57 856 bytes of extra state to "56 Kbytes".
    assert!(dv.extra_storage_bytes() >= 56 * 1024 && dv.extra_storage_bytes() < 57 * 1024);
}

#[test]
fn rendered_table_mentions_every_structure() {
    let text = Table1(UarchConfig::four_way(1, PortKind::Wide)).to_string();
    for needle in [
        "Gshare",
        "128 entries",
        "store-load forwarding",
        "Vector registers",
        "TL",
        "VRMT",
    ] {
        assert!(
            text.contains(needle),
            "Table 1 text should mention {needle}:\n{text}"
        );
    }
}
