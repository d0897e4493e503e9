(** Byte-level serialization for packet headers and payloads.

    {!Writer} appends big-endian (network byte order) fields to a
    fixed-capacity buffer; {!Reader} consumes them with bounds checking.
    All multi-byte integers are big-endian, matching the IP/UDP headers
    the RPC transport really encodes.

    Header codecs work in windows: {!Writer.claim} and {!Reader.claim}
    take a whole fixed-size header in one bounds check and return its
    absolute offset, and the codec then writes or reads each field at a
    constant offset from it in the underlying buffer.

    {!View} is a non-copying window over a buffer: the receive hot path
    hands payload views (rather than [Bytes.sub] copies) from the frame
    parser up through fragment reassembly to argument unmarshalling.
    Ownership rule: a view {e aliases} the frame it was cut from, and
    frames are never mutated after delivery, so views stay valid for as
    long as the receiver holds them; copy with {!View.to_bytes} only
    when the bytes must outlive or diverge from the frame (e.g. the
    security layer's in-place transforms). *)

exception Overflow of string
(** Raised when a write exceeds the buffer capacity or a read runs past
    the end of the data. *)

module Writer : sig
  type t

  val create : int -> t
  (** [create capacity] is an empty writer over a fresh buffer. *)

  val over : Stdlib.Bytes.t -> pos:int -> t
  (** [over buf ~pos] writes into an existing buffer starting at offset
      [pos] — how RPC stubs marshal directly into a shared packet
      buffer.  {!length} and {!patch_u16} positions are relative to
      [pos]. *)

  val length : t -> int
  (** Bytes written so far. *)

  val capacity : t -> int

  val claim : t -> int -> int
  (** [claim w n] appends an [n]-byte window and returns its absolute
      offset in {!unsafe_buffer}: one bounds check for the whole window,
      after which the caller fills bytes [o .. o + n - 1] itself (their
      contents are unspecified until it does).  Header encoders claim
      their fixed size once and write every field at a constant offset
      from [o].
      @raise Overflow if fewer than [n] bytes of capacity remain, as the
      single-field writes do; the writer is then unchanged.
      @raise Invalid_argument if [n] is negative. *)

  val u8 : t -> int -> unit
  (** [u8 w v] appends one byte; [v] must be in [0, 255]. *)

  val u16 : t -> int -> unit
  (** Appends a 16-bit big-endian value in [0, 0xffff]. *)

  val u32 : t -> int32 -> unit
  val bytes : t -> Stdlib.Bytes.t -> unit
  val sub : t -> Stdlib.Bytes.t -> pos:int -> len:int -> unit
  val string : t -> string -> unit

  val zeros : t -> int -> unit
  (** [zeros w n] appends [n] zero bytes (checksum placeholders,
      padding). *)

  val patch_u16 : t -> pos:int -> int -> unit
  (** [patch_u16 w ~pos v] overwrites the 16-bit field previously
      written at offset [pos]; used to fill in checksums and lengths
      after the fact. *)

  val contents : t -> Stdlib.Bytes.t
  (** A copy of the bytes written so far. *)

  val to_bytes : t -> Stdlib.Bytes.t
  (** The bytes written so far, {e without} a copy when the writer was
      created with {!create} and filled exactly to capacity — the frame
      builder sizes its buffer exactly, so the finished frame is the
      buffer.  Falls back to {!contents} otherwise.  The writer must not
      be written to again after [to_bytes] returns its buffer. *)

  val unsafe_buffer : t -> Stdlib.Bytes.t
  (** The underlying buffer, unscoped by {!length}; for filling a
      {!claim}ed window and checksumming in place without a copy.
      Offsets into it are absolute, as {!claim} returns them — convert
      writer-relative positions with {!absolute_pos}. *)

  val absolute_pos : t -> int -> int
  (** [absolute_pos w p] is the offset in {!unsafe_buffer} of the
      writer-relative position [p]. *)
end

module View : sig
  type t
  (** An immutable [(buffer, offset, length)] window.  No bytes are
      copied; the window keeps the underlying buffer alive. *)

  val of_bytes : ?pos:int -> ?len:int -> Stdlib.Bytes.t -> t
  val empty : t
  val length : t -> int

  val buffer : t -> Stdlib.Bytes.t
  (** The underlying buffer (shared, not a copy).  Callers must treat it
      as read-only and index it with {!offset}; exposed so checksums can
      run over a window in place. *)

  val offset : t -> int
  (** Offset of the window within {!buffer}. *)

  val sub : t -> pos:int -> len:int -> t
  (** A sub-window, still no copy.  @raise Invalid_argument out of range. *)

  val get : t -> int -> char
  val to_bytes : t -> Stdlib.Bytes.t  (** copies *)

  val to_string : t -> string  (** copies *)

  val blit : t -> dst:Stdlib.Bytes.t -> dst_pos:int -> unit
  (** Copy the window to [dst] at [dst_pos] — fragment reassembly's
      single copy per fragment. *)

  val equal_bytes : t -> Stdlib.Bytes.t -> bool
  (** Content equality against owned bytes, without copying the view. *)
end

module Reader : sig
  type t

  val of_bytes : ?pos:int -> ?len:int -> Stdlib.Bytes.t -> t

  val of_view : View.t -> t
  (** A fresh reader over a view's window, sharing the underlying
      buffer.  Each call returns an independent cursor, so a stored view
      can be decoded more than once. *)

  val remaining : t -> int
  val position : t -> int

  val claim : t -> int -> int
  (** [claim r n] consumes the next [n] bytes and returns their absolute
      offset in {!unsafe_buffer}: one bounds check for the whole window,
      after which the caller reads bytes [o .. o + n - 1] of the buffer
      directly.  Header decoders claim their fixed size once and read
      every field at a constant offset from [o].
      @raise Overflow if fewer than [n] bytes remain, as the single-field
      reads do; the reader is then unchanged.
      @raise Invalid_argument if [n] is negative. *)

  val unsafe_buffer : t -> Stdlib.Bytes.t
  (** The underlying buffer (shared, not a copy), unscoped by the
      reader's window: index it only with offsets {!claim} returned, and
      treat it as read-only. *)
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int32
  val bytes : t -> int -> Stdlib.Bytes.t
  val string : t -> int -> string

  val view : t -> int -> View.t
  (** [view r n] consumes the next [n] bytes and returns them as a
      non-copying {!View.t}.  Bounds-checked like {!bytes}. *)

  val sub_reader : t -> int -> t
  (** [sub_reader r n] consumes the next [n] bytes of [r] and returns a
      reader confined to exactly that window (no copy).  Reads on the
      sub-reader past its [n] bytes raise {!Overflow} even when the
      parent has more data — the window is a hard bound. *)

  val skip : t -> int -> unit

  val expect_end : t -> unit
  (** @raise Overflow if bytes remain unread; used by strict decoders. *)
end
