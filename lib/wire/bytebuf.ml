exception Overflow of string

module Writer = struct
  (* [cursor] is the absolute next-write offset in [buf]; [origin] is
     where this writer's window starts, so [length] and patch positions
     stay relative for writers laid over a shared packet buffer. *)
  type t = { buf : Bytes.t; origin : int; mutable cursor : int }

  let create capacity =
    if capacity < 0 then invalid_arg "Bytebuf.Writer.create: negative capacity";
    { buf = Bytes.create capacity; origin = 0; cursor = 0 }

  let over buf ~pos =
    if pos < 0 || pos > Bytes.length buf then invalid_arg "Bytebuf.Writer.over: bad position";
    { buf; origin = pos; cursor = pos }

  let length t = t.cursor - t.origin
  let capacity t = Bytes.length t.buf - t.origin

  let overflow t n ctx =
    raise (Overflow (Printf.sprintf "write %s: %d + %d > %d" ctx (length t) n (capacity t)))

  let[@inline] ensure t n ctx = if t.cursor + n > Bytes.length t.buf then overflow t n ctx

  let claim t n =
    if n < 0 then invalid_arg "Bytebuf.Writer.claim: negative length";
    let o = t.cursor in
    ensure t n "claim";
    t.cursor <- o + n;
    o

  let u8 t v =
    if v < 0 || v > 0xff then invalid_arg "Bytebuf.Writer.u8: out of range";
    ensure t 1 "u8";
    Bytes.unsafe_set t.buf t.cursor (Char.unsafe_chr v);
    t.cursor <- t.cursor + 1

  let u16 t v =
    if v < 0 || v > 0xffff then invalid_arg "Bytebuf.Writer.u16: out of range";
    ensure t 2 "u16";
    Bytes.set_uint16_be t.buf t.cursor v;
    t.cursor <- t.cursor + 2

  let u32 t v =
    ensure t 4 "u32";
    Bytes.set_int32_be t.buf t.cursor v;
    t.cursor <- t.cursor + 4

  let sub t src ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length src then
      invalid_arg "Bytebuf.Writer.sub: bad range";
    ensure t len "sub";
    Bytes.blit src pos t.buf t.cursor len;
    t.cursor <- t.cursor + len

  let bytes t src = sub t src ~pos:0 ~len:(Bytes.length src)

  let string t s =
    ensure t (String.length s) "string";
    Bytes.blit_string s 0 t.buf t.cursor (String.length s);
    t.cursor <- t.cursor + String.length s

  let zeros t n =
    ensure t n "zeros";
    Bytes.fill t.buf t.cursor n '\000';
    t.cursor <- t.cursor + n

  let patch_u16 t ~pos v =
    if v < 0 || v > 0xffff then invalid_arg "Bytebuf.Writer.patch_u16: out of range";
    if pos < 0 || t.origin + pos + 2 > t.cursor then
      invalid_arg "Bytebuf.Writer.patch_u16: bad position";
    Bytes.set_uint16_be t.buf (t.origin + pos) v

  let contents t = Bytes.sub t.buf t.origin (length t)

  let to_bytes t =
    if t.origin = 0 && t.cursor = Bytes.length t.buf then t.buf else contents t

  let unsafe_buffer t = t.buf
  let absolute_pos t p = t.origin + p
end

module View = struct
  type t = { v_buf : Bytes.t; v_pos : int; v_len : int }

  let of_bytes ?(pos = 0) ?len buf =
    let len =
      match len with
      | Some l -> l
      | None -> Bytes.length buf - pos
    in
    if pos < 0 || len < 0 || pos + len > Bytes.length buf then
      invalid_arg "Bytebuf.View.of_bytes: bad range";
    { v_buf = buf; v_pos = pos; v_len = len }

  let empty = { v_buf = Bytes.empty; v_pos = 0; v_len = 0 }

  let length t = t.v_len
  let buffer t = t.v_buf
  let offset t = t.v_pos

  let sub t ~pos ~len =
    if pos < 0 || len < 0 || pos + len > t.v_len then invalid_arg "Bytebuf.View.sub: bad range";
    { v_buf = t.v_buf; v_pos = t.v_pos + pos; v_len = len }

  let get t i =
    if i < 0 || i >= t.v_len then invalid_arg "Bytebuf.View.get: out of range";
    Bytes.get t.v_buf (t.v_pos + i)

  let to_bytes t = Bytes.sub t.v_buf t.v_pos t.v_len
  let to_string t = Bytes.sub_string t.v_buf t.v_pos t.v_len
  let blit t ~dst ~dst_pos = Bytes.blit t.v_buf t.v_pos dst dst_pos t.v_len

  let equal_bytes t b =
    t.v_len = Bytes.length b
    &&
    let rec go i = i >= t.v_len || (Bytes.get t.v_buf (t.v_pos + i) = Bytes.get b i && go (i + 1)) in
    go 0
end

module Reader = struct
  type t = { data : Bytes.t; limit : int; mutable pos : int; start : int }

  let of_bytes ?(pos = 0) ?len data =
    let len =
      match len with
      | Some l -> l
      | None -> Bytes.length data - pos
    in
    if pos < 0 || len < 0 || pos + len > Bytes.length data then
      invalid_arg "Bytebuf.Reader.of_bytes: bad range";
    { data; limit = pos + len; pos; start = pos }

  let of_view (v : View.t) =
    { data = v.View.v_buf; limit = v.View.v_pos + v.View.v_len; pos = v.View.v_pos;
      start = v.View.v_pos }

  let remaining t = t.limit - t.pos
  let position t = t.pos - t.start

  let short t n ctx =
    raise (Overflow (Printf.sprintf "read %s: %d bytes needed, %d left" ctx n (remaining t)))

  let[@inline] need t n ctx = if t.pos + n > t.limit then short t n ctx

  let unsafe_buffer t = t.data

  let claim t n =
    if n < 0 then invalid_arg "Bytebuf.Reader.claim: negative length";
    let o = t.pos in
    need t n "claim";
    t.pos <- o + n;
    o

  let u8 t =
    need t 1 "u8";
    let v = Char.code (Bytes.unsafe_get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2 "u16";
    let v = Bytes.get_uint16_be t.data t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4 "u32";
    let v = Bytes.get_int32_be t.data t.pos in
    t.pos <- t.pos + 4;
    v

  let bytes t n =
    need t n "bytes";
    let v = Bytes.sub t.data t.pos n in
    t.pos <- t.pos + n;
    v

  let string t n =
    need t n "string";
    let v = Bytes.sub_string t.data t.pos n in
    t.pos <- t.pos + n;
    v

  let view t n =
    need t n "view";
    let v = { View.v_buf = t.data; v_pos = t.pos; v_len = n } in
    t.pos <- t.pos + n;
    v

  let sub_reader t n =
    need t n "sub_reader";
    let r = { data = t.data; limit = t.pos + n; pos = t.pos; start = t.pos } in
    t.pos <- t.pos + n;
    r

  let skip t n =
    need t n "skip";
    t.pos <- t.pos + n

  let expect_end t =
    if remaining t <> 0 then
      raise (Overflow (Printf.sprintf "expect_end: %d trailing bytes" (remaining t)))
end
