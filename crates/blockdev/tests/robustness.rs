//! NBD protocol robustness: malformed frames — bad magics, truncated
//! headers, oversized declared lengths, random garbage — cost at worst
//! the offending connection. The daemon keeps serving NBD and
//! `twl-wire` traffic throughout.
//!
//! One shared in-process daemon serves every test in this binary; its
//! thread dies with the process.

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;

use proptest::prelude::*;

use twl_blockdev::{nbd, BlockServer, BlockdevConfig, GatewayConfig, NbdClient};

struct Addrs {
    data: String,
    control: String,
}

fn shared() -> &'static Addrs {
    static ADDRS: OnceLock<Addrs> = OnceLock::new();
    ADDRS.get_or_init(|| {
        let config = BlockdevConfig {
            gateway: GatewayConfig {
                pages: 64,
                mean_endurance: 1_000_000,
                ..GatewayConfig::default()
            },
            bytes_per_page: 512,
            state_dir: None,
            idle_timeout_ms: 2_000,
        };
        let server = BlockServer::bind(&config, "127.0.0.1:0", "127.0.0.1:0").expect("bind daemon");
        let addrs = Addrs {
            data: server.data_addr().to_string(),
            control: server.control_addr().to_string(),
        };
        std::thread::spawn(move || {
            let _ = server.run();
        });
        addrs
    })
}

/// Writes raw bytes to the data port, half-closes, and drains the
/// server's reply (greeting included) until it hangs up.
fn poke(bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(&shared().data).expect("connect raw");
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

/// A full handshake plus one write must still succeed.
fn assert_still_serving() {
    let mut client = NbdClient::connect(shared().data.as_str()).expect("handshake");
    client.write(0, &[7u8; 512]).expect("write");
    client.disconnect().expect("disconnect");
}

/// Client flags + an `EXPORT_NAME` option, the prefix of a valid
/// handshake, so transmission-phase garbage can be appended.
fn handshake_prefix() -> Vec<u8> {
    let mut bytes = Vec::new();
    let flags = u32::from(nbd::FLAG_FIXED_NEWSTYLE | nbd::FLAG_NO_ZEROES);
    bytes.extend_from_slice(&flags.to_be_bytes());
    bytes.extend_from_slice(&nbd::IHAVEOPT.to_be_bytes());
    bytes.extend_from_slice(&nbd::OPT_EXPORT_NAME.to_be_bytes());
    bytes.extend_from_slice(&0u32.to_be_bytes());
    bytes
}

#[test]
fn bad_option_magic_costs_only_that_connection() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&0u32.to_be_bytes()); // client flags
    bytes.extend_from_slice(&0xdead_beef_dead_beefu64.to_be_bytes());
    let reply = poke(&bytes);
    assert!(reply.len() >= 18, "greeting must have been sent");
    assert_still_serving();
}

#[test]
fn bad_request_magic_costs_only_that_connection() {
    let mut bytes = handshake_prefix();
    bytes.extend_from_slice(&0xbaad_f00du32.to_be_bytes());
    bytes.extend_from_slice(&[0u8; 24]);
    poke(&bytes);
    assert_still_serving();
}

#[test]
fn oversized_write_length_is_refused_without_allocation() {
    // A WRITE declaring u32::MAX bytes: the guard fires on the declared
    // length before any payload buffer exists, the connection dies, the
    // daemon survives.
    let mut bytes = handshake_prefix();
    bytes.extend_from_slice(&nbd::REQUEST_MAGIC.to_be_bytes());
    bytes.extend_from_slice(&0u16.to_be_bytes());
    bytes.extend_from_slice(&nbd::CMD_WRITE.to_be_bytes());
    bytes.extend_from_slice(&1u64.to_be_bytes());
    bytes.extend_from_slice(&0u64.to_be_bytes());
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    poke(&bytes);
    assert_still_serving();
}

#[test]
fn truncated_request_header_costs_only_that_connection() {
    let mut bytes = handshake_prefix();
    bytes.extend_from_slice(&nbd::REQUEST_MAGIC.to_be_bytes());
    bytes.extend_from_slice(&[0u8; 5]); // 5 of the remaining 24 bytes
    poke(&bytes);
    assert_still_serving();
}

#[test]
fn out_of_range_requests_get_errno_not_disconnect() {
    let mut client = NbdClient::connect(shared().data.as_str()).expect("handshake");
    let export = client.export_bytes();
    let err = client.read(export, 512).expect_err("read past the end");
    assert!(matches!(
        err,
        twl_blockdev::NbdError::Server { errno } if errno == nbd::EINVAL
    ));
    // The same connection keeps working after the error reply.
    client.write(0, &[1u8; 512]).expect("write after EINVAL");
    client.disconnect().expect("disconnect");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary byte blobs thrown at the data port — empty, partial
    /// handshakes, wild magics — never take the daemon down.
    #[test]
    fn random_bytes_never_kill_the_daemon(
        bytes in proptest::collection::vec(any::<u8>(), 0..128)
    ) {
        let _ = poke(&bytes);
        let mut client = NbdClient::connect(shared().data.as_str()).expect("handshake");
        prop_assert!(client.write(0, &[5u8; 512]).is_ok());
        let _ = client.disconnect();
    }

    /// Garbage appended after a valid handshake — transmission-phase
    /// corruption — costs exactly that connection.
    #[test]
    fn transmission_garbage_never_kills_the_daemon(
        bytes in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        let mut frame = handshake_prefix();
        frame.extend_from_slice(&bytes);
        let _ = poke(&frame);
        let mut client = NbdClient::connect(shared().data.as_str()).expect("handshake");
        prop_assert!(client.write(0, &[6u8; 512]).is_ok());
        let _ = client.disconnect();
    }
}

#[test]
fn control_port_survives_nbd_garbage_too() {
    poke(b"definitely not NBD");
    let mut ctl = twl_service::Client::connect(&shared().control).expect("twl-wire handshake");
    assert!(ctl
        .metrics()
        .expect("metrics")
        .contains("twl_blockdev_export_bytes"));
}
