//! Property tests of the wire layer: [`FrameDecoder`] is a pure function
//! of the byte stream (never of its chunking), every request and response
//! decoder is total on arbitrary bytes, and encode → decode is the
//! identity for every message the protocol carries.

use std::time::Duration;

use proptest::prelude::*;
use quq_serve::protocol::{
    decode_infer_request, decode_load_request, decode_response, decode_shadow_request,
    decode_unload_request, encode_error_response, encode_infer_request_with, encode_list_response,
    encode_load_request, encode_ok_response, encode_shadow_request, encode_shadow_response,
    encode_status_response, encode_unload_request, tag_response, write_frame, ShadowCmd,
    STATUS_DEADLINE, STATUS_DRAINING, STATUS_OVERLOADED, STATUS_RELOADED, STATUS_UNLOADED,
};
use quq_serve::{
    Class, FrameDecoder, InferOptions, InferResponse, ModelEntry, RegistrySnapshot, ShadowReport,
};
use quq_tensor::Tensor;

/// A UTF-8 string (one- and multi-byte chars) from a draw.
fn text(draw: &[u32]) -> String {
    const ALPHABET: [char; 8] = ['a', 'z', '0', '-', '/', '.', 'é', 'λ'];
    draw.iter().map(|&c| ALPHABET[c as usize % 8]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any chunking of a frame sequence — including splits inside a
    /// 4-byte length prefix, which a stateless reader under a read
    /// timeout tears — decodes to exactly that sequence.
    #[test]
    fn frame_decoder_yields_the_sent_frames_under_any_chunking(
        lens in prop::collection::vec(0usize..48, 0..8),
        fill in any::<u32>(),
        cuts in prop::collection::vec(any::<u64>(), 0..24),
        prefix_cuts in prop::collection::vec(1usize..4, 8),
    ) {
        let frames: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| (fill as usize ^ (i * 131 + j)) as u8).collect())
            .collect();
        let mut stream = Vec::new();
        let mut splits = Vec::new();
        for (f, k) in frames.iter().zip(&prefix_cuts) {
            splits.push(stream.len() + k); // inside this frame's prefix
            write_frame(&mut stream, f).unwrap();
        }
        splits.extend(cuts.iter().map(|&c| (c % (stream.len() as u64 + 1)) as usize));
        splits.push(stream.len());
        splits.sort_unstable();

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut at = 0;
        for end in splits {
            dec.extend(&stream[at..end]);
            at = end;
            while let Some(frame) = dec.next_frame().unwrap() {
                got.push(frame);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert!(!dec.midframe());
    }

    /// No decoder panics on hostile input: each returns `Ok` or `Err`.
    /// The opcode / status byte is steered so every decode branch is hit.
    #[test]
    fn decoders_are_total_on_arbitrary_bytes(
        draw in prop::collection::vec(0u32..256, 0..40),
        tag in 0u32..12,
    ) {
        // `0..256` draws: the strategy shim has no `u8` ranges.
        let mut payload: Vec<u8> = draw.iter().map(|&b| b as u8).collect();
        if let Some(op) = payload.first_mut() {
            *op = tag as u8;
        }
        let _ = decode_infer_request(&payload);
        let _ = decode_load_request(&payload);
        let _ = decode_unload_request(&payload);
        let _ = decode_shadow_request(&payload);
        if let Some(status) = payload.get_mut(4) {
            *status = tag as u8;
        }
        let _ = decode_response(&payload);
    }

    /// INFER carries id, model name, SLO options and the tensor bit-exact.
    #[test]
    fn infer_request_roundtrips(
        id in any::<u32>(),
        batch in any::<bool>(),
        deadline_us in any::<u32>(),
        names in (prop::collection::vec(0u32..8, 0..12), prop::collection::vec(0u32..8, 0..12)),
        dims in prop::collection::vec(1usize..4, 1..4),
        seed in any::<u32>(),
    ) {
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n as u32)
            .map(|i| f32::from_bits(seed.rotate_left(i) ^ i.wrapping_mul(0x9E37_79B9)))
            .collect();
        let image = Tensor::from_vec(data, &dims).unwrap();
        let opts = InferOptions {
            class: if batch { Class::Batch } else { Class::Interactive },
            deadline: (deadline_us > 0).then(|| Duration::from_micros(u64::from(deadline_us))),
            tenant: text(&names.0),
        };
        let model = text(&names.1);
        let enc = encode_infer_request_with(id, &model, &image, &opts);
        let (got_id, meta, got_model, got_image) = decode_infer_request(&enc).unwrap();
        prop_assert_eq!((got_id, got_model), (id, model));
        prop_assert_eq!((meta.class, meta.deadline_us), (opts.class, deadline_us));
        prop_assert_eq!(meta.tenant, opts.tenant);
        prop_assert_eq!(got_image.shape(), image.shape());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got_image), bits(&image));
    }

    /// LOAD, UNLOAD and every SHADOW command round-trip.
    #[test]
    fn admin_requests_roundtrip(
        id in any::<u32>(),
        name in prop::collection::vec(0u32..8, 0..16),
        path in prop::collection::vec(0u32..8, 0..40),
        action in 0u32..4,
        permille in 0u32..=1000,
    ) {
        let (name, path) = (text(&name), text(&path));
        let load = encode_load_request(id, &name, &path);
        prop_assert_eq!(decode_load_request(&load).unwrap(), (id, name.clone(), path));
        let unload = encode_unload_request(id, &name);
        prop_assert_eq!(decode_unload_request(&unload).unwrap(), (id, name.clone()));
        let cmd = match action {
            0 => ShadowCmd::Set { name, permille: permille as u16 },
            1 => ShadowCmd::Promote,
            2 => ShadowCmd::Abort,
            _ => ShadowCmd::Status,
        };
        let shadow = encode_shadow_request(id, &cmd);
        prop_assert_eq!(decode_shadow_request(&shadow).unwrap(), (id, cmd));
    }

    /// Every response status round-trips with its id.
    #[test]
    fn responses_roundtrip(
        id in any::<u32>(),
        logit_bits in prop::collection::vec(any::<u32>(), 0..16),
        names in prop::collection::vec(prop::collection::vec(0u32..8, 0..10), 0..4),
        counters in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let roundtrip = |body: Vec<u8>| decode_response(&tag_response(id, &body)).unwrap();
        let logits: Vec<f32> = logit_bits.iter().map(|&b| f32::from_bits(b)).collect();
        match roundtrip(encode_ok_response(&logits)) {
            (got, InferResponse::Ok { top1, logits: l }) => {
                prop_assert_eq!(got, id);
                prop_assert!(top1 as usize <= logits.len().saturating_sub(1));
                let got_bits: Vec<u32> = l.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got_bits, logit_bits);
            }
            other => prop_assert!(false, "OK decoded as {other:?}"),
        }
        for (status, want) in [
            (STATUS_OVERLOADED, InferResponse::Overloaded),
            (STATUS_DRAINING, InferResponse::Draining),
            (STATUS_RELOADED, InferResponse::Reloaded),
            (STATUS_UNLOADED, InferResponse::Unloaded),
            (STATUS_DEADLINE, InferResponse::DeadlineExceeded),
        ] {
            prop_assert_eq!(roundtrip(encode_status_response(status)), (id, want));
        }
        let msg = text(&names.concat());
        prop_assert_eq!(
            roundtrip(encode_error_response(&msg)),
            (id, InferResponse::Error(msg))
        );
        let (a, b, c) = counters;
        let snapshot = RegistrySnapshot {
            models: names
                .iter()
                .map(|n| ModelEntry { name: text(n), resident: a % 2 == 0, bytes: b, requests: c })
                .collect(),
            loads: a,
            evictions: b,
        };
        prop_assert_eq!(
            roundtrip(encode_list_response(&snapshot)),
            (id, InferResponse::ModelList(snapshot))
        );
        let report = ShadowReport {
            active: c % 2 == 1,
            name: text(names.first().map_or(&[][..], Vec::as_slice)),
            permille: (a % 1001) as u16,
            mirrored: a,
            agree: b,
            disagree: c,
        };
        prop_assert_eq!(
            roundtrip(encode_shadow_response(&report)),
            (id, InferResponse::Shadow(report))
        );
    }
}
