module R = Wire.Bytebuf.Reader
module V = Wire.Bytebuf.View
module W = Wire.Bytebuf.Writer
module Proto = Rpc.Proto
module Frames = Rpc.Frames
module Collector = Rpc.Exchange.Collector

(* Three properties, checked on every input at every layer:

   1. Totality — no exception escapes a decoder; malformed input means
      [Error], nothing else.
   2. Accept implies re-encode round-trips — a header the decoder
      accepts, re-encoded by the matching encoder, must decode again to
      the identical header (the decoders are lossy about don't-care
      bits, so the round-trip is semantic, not byte-for-byte — except
      Ethernet, whose codec is lossless and is held to the exact bytes).
   3. The zero-copy path is the copying path — decoding through
      [Reader.of_view] over a window of a larger buffer must agree
      byte-identically (including the [Error] strings) with
      [Reader.of_bytes] over a private copy. *)

type kind =
  | Exception_escaped of string
  | Roundtrip_broken of string
  | Differential of string

type failure = { stage : string; kind : kind }

let kind_tag = function
  | Exception_escaped _ -> "exception"
  | Roundtrip_broken _ -> "roundtrip"
  | Differential _ -> "differential"

let kind_message = function
  | Exception_escaped m | Roundtrip_broken m | Differential m -> m

(* Failure identity for dedup and shrinking: the stage and the property
   that broke, not the message — messages carry input-size detail that
   legitimately changes as a reproducer shrinks. *)
let key f = f.stage ^ "/" ^ kind_tag f.kind

let to_string f = Printf.sprintf "[%s] %s: %s" f.stage (kind_tag f.kind) (kind_message f.kind)

let src_ip = Corpus.src.Frames.ip
let dst_ip = Corpus.dst.Frames.ip

(* The view path embeds the input mid-buffer, junk on both sides, so an
   absolute-offset bug in any decoder shows up as a differential. *)
let embed_pad = 5

let embed input =
  let b = Bytes.make (Bytes.length input + (2 * embed_pad)) '\xa5' in
  Bytes.blit input 0 b embed_pad (Bytes.length input);
  V.of_bytes ~pos:embed_pad ~len:(Bytes.length input) b

let attempt f = try Ok (f ()) with exn -> Error (Printexc.to_string exn)

(* Decode [input] through the copying path and through a view embedded
   mid-buffer ([names] says which is which in reports); fail on an
   escaped exception or any disagreement, else return the agreed
   acceptance. *)
let differential ~stage ~names:(copying, viewing) ~copy ~view ~agree input =
  let fail msg = Error { stage; kind = Differential msg } in
  match (attempt (fun () -> copy (Bytes.copy input)), attempt (fun () -> view (embed input))) with
  | Error exn, _ | _, Error exn -> Error { stage; kind = Exception_escaped exn }
  | Ok (Ok a), Ok (Ok b) ->
    if agree a b then Ok (Some a)
    else fail (Printf.sprintf "%s and %s accept different values" copying viewing)
  | Ok (Error ea), Ok (Error eb) ->
    if String.equal ea eb then Ok None
    else fail (Printf.sprintf "%s rejects with %S, %s with %S" copying ea viewing eb)
  | Ok (Ok _), Ok (Error e) -> fail (Printf.sprintf "%s accepts, %s rejects: %s" copying viewing e)
  | Ok (Error e), Ok (Ok _) -> fail (Printf.sprintf "%s accepts, %s rejects: %s" viewing copying e)

(* Run [decode] over both reader paths; hand an agreed [Ok] to
   [accepted]. *)
let stage_result ~stage ~decode ~agree ~accepted input =
  match
    differential ~stage ~names:("of_bytes", "of_view")
      ~copy:(fun b -> decode (R.of_bytes b))
      ~view:(fun v -> decode (R.of_view v))
      ~agree input
  with
  | Error f -> Some f
  | Ok None -> None
  | Ok (Some a) -> accepted a

let roundtrip ~stage ~encode ~decode ~equal h =
  match attempt (fun () -> encode h) with
  | Error exn ->
    Some { stage; kind = Roundtrip_broken ("re-encode raised " ^ exn) }
  | Ok bytes -> (
    match attempt (fun () -> decode (R.of_bytes bytes)) with
    | Error exn -> Some { stage; kind = Roundtrip_broken ("decode of re-encode raised " ^ exn) }
    | Ok (Error e) -> Some { stage; kind = Roundtrip_broken ("re-encode rejected: " ^ e) }
    | Ok (Ok h') ->
      if equal h h' then None
      else Some { stage; kind = Roundtrip_broken "re-encoded header decodes differently" })

(* {1 Per-layer stages} *)

let ethernet_stage input =
  stage_result ~stage:"ethernet" ~decode:Net.Ethernet.decode ~agree:( = ) input
    ~accepted:(fun h ->
      (* The Ethernet codec is lossless: accept means the first 14 bytes
         ARE the re-encoding. *)
      let w = W.create Net.Ethernet.header_size in
      Net.Ethernet.encode w h;
      if Bytes.equal (W.to_bytes w) (Bytes.sub input 0 Net.Ethernet.header_size) then None
      else
        Some { stage = "ethernet"; kind = Roundtrip_broken "re-encode differs from input bytes" })

let ipv4_stage input =
  stage_result ~stage:"ipv4" ~decode:Net.Ipv4.decode ~agree:( = ) input
    ~accepted:
      (roundtrip ~stage:"ipv4"
         ~encode:(fun h ->
           let w = W.create Net.Ipv4.header_size in
           Net.Ipv4.encode w h;
           W.to_bytes w)
         ~decode:Net.Ipv4.decode ~equal:( = ))

let udp_agree (h1, p1) (h2, p2) = h1 = h2 && Bytes.equal (V.to_bytes p1) (V.to_bytes p2)

let udp_stage input =
  stage_result ~stage:"udp"
    ~decode:(fun r -> Net.Udp.decode r ~src:src_ip ~dst:dst_ip)
    ~agree:udp_agree input
    ~accepted:(fun (h, payload) ->
      (* Re-encode the canonical datagram: the accepted header's length
         bounds the payload, trailing bytes beyond it are not part of
         the datagram.  Compare ports, length and payload — the stored
         checksum has two valid encodings of zero (RFC 768), so the
         field itself is not compared. *)
      let body = V.to_bytes payload in
      roundtrip ~stage:"udp"
        ~encode:(fun () ->
          let w = W.create (Net.Udp.header_size + Bytes.length body) in
          Net.Udp.encode w ~src:src_ip ~dst:dst_ip ~src_port:h.Net.Udp.src_port
            ~dst_port:h.Net.Udp.dst_port ~checksum:(h.Net.Udp.checksum <> 0)
            ~payload:(fun w -> W.bytes w body)
            ();
          W.to_bytes w)
        ~decode:(fun r -> Net.Udp.decode r ~src:src_ip ~dst:dst_ip)
        ~equal:(fun () (h', p') ->
          h'.Net.Udp.src_port = h.Net.Udp.src_port
          && h'.Net.Udp.dst_port = h.Net.Udp.dst_port
          && h'.Net.Udp.length = h.Net.Udp.length
          && V.equal_bytes p' body)
        ())

let rpc_header_stage input =
  stage_result ~stage:"rpc-header" ~decode:Proto.decode ~agree:( = ) input
    ~accepted:
      (roundtrip ~stage:"rpc-header"
         ~encode:(fun h ->
           let w = W.create Proto.size in
           Proto.encode w h;
           W.to_bytes w)
         ~decode:Proto.decode ~equal:( = ))

(* {1 The full stack, under every regime} *)

let parsed_agree (a : Frames.parsed) (b : Frames.parsed) =
  a.Frames.p_src = b.Frames.p_src
  && a.Frames.p_hdr = b.Frames.p_hdr
  && Bytes.equal (V.to_bytes a.Frames.p_payload) (V.to_bytes b.Frames.p_payload)

let frame_stage ~label ~timing input =
  match
    differential ~stage:("frame[" ^ label ^ "]") ~names:("parse", "parse_view")
      ~copy:(Frames.parse timing) ~view:(Frames.parse_view timing) ~agree:parsed_agree input
  with
  | Error f -> (Some f, None)
  | Ok parsed -> (None, parsed)

(* {1 Fragment reassembly}

   Accepted multi-fragment frames feed the runtime's own collector
   ([Rpc.Exchange.Collector]), one per (activity, seq, fragment count)
   run of frames, and it must stay total — reassembly is where the
   pre-hardening runtime raised [Not_found]. *)

type reassembly = {
  mutable call : (Proto.Activity.t * int * int) option;
  mutable parts : Collector.t;
}

let reassembly () = { call = None; parts = Collector.create () }

let reassembly_stage rs (p : Frames.parsed) =
  let h = p.Frames.p_hdr in
  let feed () =
    let call = Some (h.Proto.activity, h.Proto.seq, h.Proto.frag_count) in
    if rs.call <> call then begin
      rs.call <- call;
      rs.parts <- Collector.create ()
    end;
    ignore (Collector.offer rs.parts h p.Frames.p_payload);
    if Option.is_some (Collector.payload rs.parts) then rs.call <- None
  in
  if h.Proto.frag_count <= 1 then None
  else
    match attempt feed with
    | Error exn -> Some { stage = "reassembly"; kind = Exception_escaped exn }
    | Ok () -> None

(* {1 The oracle} *)

type outcome = { failure : failure option; full_stack_ok : bool }

let first_failure checks = List.find_map (fun c -> c ()) checks

let run ?reasm input =
  let full_stack_ok = ref false in
  let frame_check (label, timing) () =
    let f, parsed = frame_stage ~label ~timing input in
    if Option.is_some parsed then full_stack_ok := true;
    match (f, parsed, reasm) with
    | None, Some p, Some rs -> reassembly_stage rs p
    | _ -> f
  in
  let failure =
    first_failure
      ([
         (fun () -> ethernet_stage input);
         (fun () -> ipv4_stage input);
         (fun () -> udp_stage input);
         (fun () -> rpc_header_stage input);
       ]
      @ List.map frame_check Corpus.all_timings)
  in
  { failure; full_stack_ok = !full_stack_ok }
