(* The bit-packed frame container behind the sweep journal and the
   worker wire protocol.  Every number below is normative in
   docs/JOURNAL_FORMAT.md — the spec is the contract, this file
   implements it, and test_journal.ml decodes a golden frame built from
   the spec's field table to keep the two honest.  Keep the layout in
   sync or the golden test fails.

   A frame is byte-aligned on disk but bit-packed inside: a 120-bit
   (15-byte) header, the payload bits padded with zeros to a byte
   boundary, and a 32-bit CRC trailer computed over every preceding byte
   of the frame.  Every header field is whole bytes, so the codec works
   on bytes: the header is read and written with the big-endian Bytes
   accessors, the payload is one blit, and the CRC is a byte-at-a-time
   table whose 256 entries come from Ecc's bit-serial engine — the
   definition the spec gives and the reference the tests compare
   against.

   Superblock and Record frames live in journal files; the remaining
   kinds travel only over supervisor/worker pipes (Sim.Worker /
   Sim.Dispatch) and are never valid in a journal — a journal scan
   treats them as the start of the torn tail. *)

type kind = Superblock | Record | Hello | Task | Result | Heartbeat | Shutdown

type t = { kind : kind; version : int; key : int; payload : Bitbuf.t }

type error =
  | Truncated of { offset : int; missing : int }
  | Bad_magic of { offset : int; found : int }
  | Bad_kind of { offset : int; found : int }
  | Unsupported_version of { offset : int; found : int }
  | Nonzero_padding of { offset : int }
  | Key_out_of_range of { offset : int }
  | Bad_crc of { offset : int; stored : int; computed : int }

let pp_error fmt = function
  | Truncated { offset; missing } ->
      Format.fprintf fmt "truncated frame at byte %d (%d bytes missing)" offset missing
  | Bad_magic { offset; found } ->
      Format.fprintf fmt "bad magic 0x%04x at byte %d" found offset
  | Bad_kind { offset; found } ->
      Format.fprintf fmt "bad frame kind 0x%02x at byte %d" found offset
  | Unsupported_version { offset; found } ->
      Format.fprintf fmt "unsupported frame version %d at byte %d" found offset
  | Nonzero_padding { offset } ->
      Format.fprintf fmt "nonzero padding bits in frame at byte %d" offset
  | Key_out_of_range { offset } ->
      Format.fprintf fmt "key field out of range in frame at byte %d" offset
  | Bad_crc { offset; stored; computed } ->
      Format.fprintf fmt "CRC mismatch at byte %d (stored 0x%08x, computed 0x%08x)" offset
        stored computed

let error_to_string e = Format.asprintf "%a" pp_error e

(* Spec constants (JOURNAL_FORMAT.md "Frame layout").  The magic spells
   "OJ" — Oracle Journal. *)
let magic = 0x4f4a
let kind_superblock = 0x53 (* 'S' *)
let kind_record = 0x52 (* 'R' *)

(* Wire-only kinds (the worker protocol); mnemonic ASCII like the
   journal kinds.  Never written to journal files. *)
let kind_hello = 0x48 (* 'H' *)
let kind_task = 0x54 (* 'T' *)
let kind_result = 0x41 (* 'A' — answer *)
let kind_heartbeat = 0x42 (* 'B' — beat *)
let kind_shutdown = 0x51 (* 'Q' — quit *)
let current_version = 1
let header_bytes = 15
let crc_bytes = 4
let max_payload_bits = (1 lsl 24) - 1
let max_key = max_int (* 63-bit non-negative OCaml int *)

(* CRC-32, generator 0x04C11DB7, as Ecc's bit-serial engine defines it:
   MSB-first, initial register 0, augmented with 32 flushing zero bits,
   no reflection, no final XOR.  Deliberately NOT the zlib/IEEE CRC —
   the spec defines this exact variant.

   Computed a byte at a time.  Entry [b] of the table is the augmented
   CRC of the single byte [b], [b·x³² mod P], built by the engine
   itself.  With a zero initial register the direct table step
   [reg ← (reg·x⁸ mod x³²) ⊕ T[top byte of reg ⊕ next byte]] keeps
   [reg = M·x³² mod P] for the message [M] read so far, which is the
   augmented definition, so no flushing step follows. *)
let crc_poly = 0x04C11DB7
let crc_width = 32

let crc_table =
  Array.init 256 (fun byte ->
      let reg = ref 0 in
      for bit = 7 downto 0 do
        reg := Ecc.crc_update ~poly:crc_poly ~width:crc_width !reg (byte lsr bit land 1 = 1)
      done;
      Ecc.crc_finish ~poly:crc_poly ~width:crc_width !reg)

let crc32_bytes buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Frame.crc32_bytes: range out of bounds";
  let reg = ref 0 in
  for i = pos to pos + len - 1 do
    let top = (!reg lsr 24) lxor Char.code (Bytes.unsafe_get buf i) in
    reg := (!reg lsl 8) land 0xffffffff lxor crc_table.(top)
  done;
  !reg

let kind_byte = function
  | Superblock -> kind_superblock
  | Record -> kind_record
  | Hello -> kind_hello
  | Task -> kind_task
  | Result -> kind_result
  | Heartbeat -> kind_heartbeat
  | Shutdown -> kind_shutdown

let kind_of_byte b =
  if b = kind_superblock then Some Superblock
  else if b = kind_record then Some Record
  else if b = kind_hello then Some Hello
  else if b = kind_task then Some Task
  else if b = kind_result then Some Result
  else if b = kind_heartbeat then Some Heartbeat
  else if b = kind_shutdown then Some Shutdown
  else None

let byte_size t = header_bytes + Bitbuf.byte_length t.payload + crc_bytes

let encode t =
  if t.key < 0 then invalid_arg "Frame.encode: negative key";
  if t.version < 0 || t.version > 0xff then invalid_arg "Frame.encode: version out of range";
  let bits = Bitbuf.length t.payload in
  if bits > max_payload_bits then invalid_arg "Frame.encode: payload too large";
  let body = header_bytes + Bitbuf.byte_length t.payload in
  let b = Bytes.create (body + crc_bytes) in
  Bytes.set_uint16_be b 0 magic;
  Bytes.set_uint8 b 2 (kind_byte t.kind);
  Bytes.set_uint8 b 3 t.version;
  Bytes.set_int64_be b 4 (Int64.of_int t.key);
  Bytes.set_uint8 b 12 (bits lsr 16);
  Bytes.set_uint16_be b 13 (bits land 0xffff);
  (* [to_bytes] zero-pads the last byte, as the spec requires. *)
  let payload = Bitbuf.to_bytes t.payload in
  Bytes.blit payload 0 b header_bytes (Bytes.length payload);
  Bytes.set_int32_be b body (Int32.of_int (crc32_bytes b ~pos:0 ~len:body));
  Bytes.unsafe_to_string b

let uint32_be b i = Int32.to_int (Bytes.get_int32_be b i) land 0xffffffff

let decode_bytes b ~pos ~stop =
  if pos < 0 then invalid_arg "Frame.decode: negative position";
  if stop > Bytes.length b then invalid_arg "Frame.decode: end past the buffer";
  let avail = stop - pos in
  if avail < header_bytes then
    Error (Truncated { offset = pos; missing = header_bytes - avail })
  else begin
    let m = Bytes.get_uint16_be b pos in
    let k = Bytes.get_uint8 b (pos + 2) in
    let v = Bytes.get_uint8 b (pos + 3) in
    let key_hi = uint32_be b (pos + 4) in
    let key_lo = uint32_be b (pos + 8) in
    let bits = (Bytes.get_uint8 b (pos + 12) lsl 16) lor Bytes.get_uint16_be b (pos + 13) in
    if m <> magic then Error (Bad_magic { offset = pos; found = m })
    else if kind_of_byte k = None then Error (Bad_kind { offset = pos; found = k })
    else if v <> current_version then Error (Unsupported_version { offset = pos; found = v })
    else if key_hi lsr 30 <> 0 then
      (* Keys are 63-bit non-negative OCaml ints, so bits 63..62 of the
         64-bit field must be clear (spec: "reserved, MUST be zero"). *)
      Error (Key_out_of_range { offset = pos })
    else begin
      let body_bytes = (bits + 7) / 8 in
      let total = header_bytes + body_bytes + crc_bytes in
      if avail < total then Error (Truncated { offset = pos; missing = total - avail })
      else begin
        (* Canonical-encoding check: the writer pads with zeros, so any
           set pad bit means the frame is not one [encode] produced. *)
        let pad_ok =
          bits land 7 = 0
          ||
          let last = Bytes.get_uint8 b (pos + header_bytes + body_bytes - 1) in
          last land (0xff lsr (bits land 7)) = 0
        in
        if not pad_ok then Error (Nonzero_padding { offset = pos })
        else begin
          let computed = crc32_bytes b ~pos ~len:(header_bytes + body_bytes) in
          let stored = uint32_be b (pos + header_bytes + body_bytes) in
          if computed <> stored then Error (Bad_crc { offset = pos; stored; computed })
          else
            let kind = match kind_of_byte k with Some kd -> kd | None -> assert false in
            let key = (key_hi lsl 32) lor key_lo in
            let payload = Bitbuf.of_bytes b ~pos:(pos + header_bytes) ~bits in
            Ok ({ kind; version = v; key; payload }, pos + total)
        end
      end
    end
  end

let decode s ~pos = decode_bytes (Bytes.unsafe_of_string s) ~pos ~stop:(String.length s)
