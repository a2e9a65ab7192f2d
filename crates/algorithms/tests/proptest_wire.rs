//! Wire-format property tests for the coded plane's two frame kinds.
//!
//! Both kinds are read by one parser, `decode_coded_frame`. A systematic
//! frame puts a zero flag in the byte where a coded frame carries its
//! coefficient count `k`; `k == 0` was never a valid coded packet, so a
//! decoder that predates systematic frames skips them. Each kind must
//! round-trip exactly: a systematic frame to its generation, generation
//! size, index and payload bytes, a coded packet to its generation,
//! coefficient row and payload bytes.

use ioverlay_algorithms::coding::{
    decode_coded_frame, encode_coded_msg, encode_systematic_msg, CodedFrame,
};
use ioverlay_gf256::{CodedPacket, Gf256};
use ioverlay_message::NodeId;
use proptest::prelude::*;

proptest! {
    /// Any systematic frame carries the zero flag a legacy decoder
    /// skips, and is exact under the frame parser.
    #[test]
    fn legacy_decoders_skip_systematic_frames(
        gen in any::<u32>(),
        gen_size in 1usize..=255,
        index_seed in any::<usize>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let index = index_seed % gen_size;
        let msg = encode_systematic_msg(NodeId::loopback(3), 7, gen, gen_size, index, &payload);

        // The flag sits where a coded frame's `k` lives.
        prop_assert_eq!(msg.payload()[4], 0);

        let (got_gen, frame) = decode_coded_frame(&msg).expect("frame parse");
        prop_assert_eq!(got_gen, gen);
        let CodedFrame::Systematic { generation_size, index: got_index, payload: got } = frame
        else {
            return Err(TestCaseError::fail("systematic frame parsed as coded"));
        };
        prop_assert_eq!(generation_size, gen_size);
        prop_assert_eq!(got_index, index);
        prop_assert_eq!(&got[..], &payload[..]);
    }

    /// Coded packets round-trip unchanged through the frame parser, as
    /// `CodedFrame::Coded`.
    #[test]
    fn coded_packets_roundtrip_through_the_frame_parser(
        gen in any::<u32>(),
        coeffs in proptest::collection::vec(1u8..=255, 1..33),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let packet = CodedPacket::from_parts(
            coeffs.iter().map(|&b| Gf256::new(b)).collect(),
            data,
        );
        let msg = encode_coded_msg(NodeId::loopback(3), 7, gen, &packet);

        let (frame_gen, frame) = decode_coded_frame(&msg).expect("frame parse");
        prop_assert_eq!(frame_gen, gen);
        let CodedFrame::Coded { coeffs: got_coeffs, payload: got_payload } = frame else {
            return Err(TestCaseError::fail("coded packet parsed as systematic"));
        };
        prop_assert_eq!(&got_coeffs[..], packet.coeffs());
        prop_assert_eq!(&got_payload[..], packet.data());
    }
}
