open Bitstring

let check_bits = Alcotest.(check (list bool))
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let test_empty () =
  let b = Bitbuf.create () in
  check_int "length" 0 (Bitbuf.length b);
  check_bool "is_empty" true (Bitbuf.is_empty b);
  check_string "to_string" "" (Bitbuf.to_string b)

let test_add_bit () =
  let b = Bitbuf.create () in
  Bitbuf.add_bit b true;
  Bitbuf.add_bit b false;
  Bitbuf.add_bit b true;
  check_int "length" 3 (Bitbuf.length b);
  check_bool "bit 0" true (Bitbuf.get b 0);
  check_bool "bit 1" false (Bitbuf.get b 1);
  check_bool "bit 2" true (Bitbuf.get b 2);
  check_string "render" "101" (Bitbuf.to_string b)

let test_add_bits_order () =
  let b = Bitbuf.create () in
  Bitbuf.add_bits b [ true; true; false; true ];
  check_string "order preserved" "1101" (Bitbuf.to_string b)

let test_growth_across_bytes () =
  let b = Bitbuf.create ~capacity:1 () in
  for i = 0 to 99 do
    Bitbuf.add_bit b (i mod 3 = 0)
  done;
  check_int "length" 100 (Bitbuf.length b);
  for i = 0 to 99 do
    check_bool (Printf.sprintf "bit %d" i) (i mod 3 = 0) (Bitbuf.get b i)
  done

let test_add_int_msb_first () =
  let b = Bitbuf.create () in
  Bitbuf.add_int b ~width:4 0b1011;
  check_string "msb first" "1011" (Bitbuf.to_string b)

let test_add_int_leading_zeros () =
  let b = Bitbuf.create () in
  Bitbuf.add_int b ~width:6 3;
  check_string "padded" "000011" (Bitbuf.to_string b)

let test_add_int_zero_width () =
  let b = Bitbuf.create () in
  Bitbuf.add_int b ~width:0 0;
  check_int "nothing written" 0 (Bitbuf.length b)

let test_add_int_overflow () =
  let b = Bitbuf.create () in
  Alcotest.check_raises "does not fit" (Invalid_argument "Bitbuf.add_int: value does not fit in width")
    (fun () -> Bitbuf.add_int b ~width:3 8)

let test_add_int_negative () =
  let b = Bitbuf.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Bitbuf.add_int: negative value") (fun () ->
      Bitbuf.add_int b ~width:3 (-1))

let test_of_string_roundtrip () =
  let s = "0110100101011" in
  check_string "roundtrip" s (Bitbuf.to_string (Bitbuf.of_string s))

let test_of_string_bad_char () =
  Alcotest.check_raises "bad char" (Invalid_argument "Bitbuf.of_string: bad character '2'")
    (fun () -> ignore (Bitbuf.of_string "0120"))

let test_of_bits_to_bits () =
  let bits = [ true; false; false; true; true ] in
  check_bits "roundtrip" bits (Bitbuf.to_bits (Bitbuf.of_bits bits))

let test_append () =
  let a = Bitbuf.of_string "101" in
  let b = Bitbuf.of_string "0110" in
  Bitbuf.append a b;
  check_string "appended" "1010110" (Bitbuf.to_string a);
  check_string "source untouched" "0110" (Bitbuf.to_string b)

let test_copy_independent () =
  let a = Bitbuf.of_string "11" in
  let b = Bitbuf.copy a in
  Bitbuf.add_bit b false;
  check_string "original" "11" (Bitbuf.to_string a);
  check_string "copy" "110" (Bitbuf.to_string b)

let test_equal () =
  check_bool "equal" true (Bitbuf.equal (Bitbuf.of_string "1010") (Bitbuf.of_string "1010"));
  check_bool "length differs" false (Bitbuf.equal (Bitbuf.of_string "101") (Bitbuf.of_string "1010"));
  check_bool "content differs" false (Bitbuf.equal (Bitbuf.of_string "1010") (Bitbuf.of_string "1011"))

let test_get_out_of_range () =
  let b = Bitbuf.of_string "10" in
  Alcotest.check_raises "index 2" (Invalid_argument "Bitbuf.get: index out of range") (fun () ->
      ignore (Bitbuf.get b 2));
  Alcotest.check_raises "negative" (Invalid_argument "Bitbuf.get: index out of range") (fun () ->
      ignore (Bitbuf.get b (-1)))

let test_reader_bits () =
  let r = Bitbuf.reader (Bitbuf.of_string "101") in
  check_bool "pos 0" true (Bitbuf.read_bit r);
  check_bool "pos 1" false (Bitbuf.read_bit r);
  check_int "remaining" 1 (Bitbuf.remaining r);
  check_int "pos" 2 (Bitbuf.pos r);
  check_bool "pos 2" true (Bitbuf.read_bit r);
  check_bool "at_end" true (Bitbuf.at_end r);
  Alcotest.check_raises "end" Bitbuf.End_of_bits (fun () -> ignore (Bitbuf.read_bit r))

let test_reader_int () =
  let b = Bitbuf.create () in
  Bitbuf.add_int b ~width:7 93;
  Bitbuf.add_int b ~width:3 5;
  let r = Bitbuf.reader b in
  check_int "first" 93 (Bitbuf.read_int r ~width:7);
  check_int "second" 5 (Bitbuf.read_int r ~width:3);
  check_bool "exhausted" true (Bitbuf.at_end r)

let test_reader_int_underflow () =
  let r = Bitbuf.reader (Bitbuf.of_string "10") in
  Alcotest.check_raises "underflow" Bitbuf.End_of_bits (fun () ->
      ignore (Bitbuf.read_int r ~width:3))

(* {1 Byte-wise writers against bit-by-bit references}

   [add_int], [append] and [add_string] write whole bytes at a time;
   [add_bit] is the definition they must agree with, bit for bit and
   byte for byte (the packed bytes pin the zero-pad invariant too). *)

let ref_add_int b ~width v =
  for i = width - 1 downto 0 do
    Bitbuf.add_bit b ((v lsr i) land 1 = 1)
  done

let prefix rng n =
  let b = Bitbuf.create ~capacity:1 () in
  for _ = 1 to n do
    Bitbuf.add_bit b (Random.State.bool rng)
  done;
  b

let check_same what ~expected got =
  check_string what (Bitbuf.to_string expected) (Bitbuf.to_string got);
  check_string (what ^ ", packed") (Bytes.to_string (Bitbuf.to_bytes expected))
    (Bytes.to_string (Bitbuf.to_bytes got))

let test_add_int_matches_reference () =
  let rng = Random.State.make [| 0xadd |] in
  for width = 0 to 62 do
    for off = 0 to 7 do
      let values =
        if width = 0 then [ 0 ]
        else
          let top = (1 lsl width) - 1 in
          let bits () = Random.State.bits rng in
          [ 0; top; 1 lsl (width - 1); ((bits () lsl 40) lxor (bits () lsl 20) lxor bits ()) land top ]
      in
      List.iter
        (fun v ->
          let start = prefix rng off in
          let got = Bitbuf.copy start and expected = Bitbuf.copy start in
          Bitbuf.add_int got ~width v;
          ref_add_int expected ~width v;
          (* A trailing write checks that nothing past [len] was set. *)
          Bitbuf.add_int got ~width:5 0b10011;
          ref_add_int expected ~width:5 0b10011;
          check_same (Printf.sprintf "width %d at offset %d, value %d" width off v) ~expected got)
        values
    done
  done

let test_add_int_wide_fields () =
  (* A field wider than an int's 62 value bits is leading zeros. *)
  List.iter
    (fun width ->
      let got = Bitbuf.create () and expected = Bitbuf.create () in
      Bitbuf.add_bit got true;
      Bitbuf.add_bit expected true;
      Bitbuf.add_int got ~width max_int;
      for _ = 1 to width - 62 do
        Bitbuf.add_bit expected false
      done;
      ref_add_int expected ~width:62 max_int;
      check_same (Printf.sprintf "width %d" width) ~expected got)
    [ 63; 64; 100 ]

let test_append_matches_reference () =
  let rng = Random.State.make [| 0xa99 |] in
  for len = 0 to 70 do
    for off = 0 to 15 do
      let dst = prefix rng off and src = prefix rng len in
      let expected = Bitbuf.copy dst in
      for i = 0 to len - 1 do
        Bitbuf.add_bit expected (Bitbuf.get src i)
      done;
      Bitbuf.append dst src;
      Bitbuf.add_int dst ~width:3 0b101;
      ref_add_int expected ~width:3 0b101;
      check_same (Printf.sprintf "append %d bits at offset %d" len off) ~expected dst
    done
  done

let test_append_self () =
  let rng = Random.State.make [| 5 |] in
  for len = 0 to 20 do
    let b = prefix rng len in
    let expected = Bitbuf.of_string (Bitbuf.to_string b ^ Bitbuf.to_string b) in
    Bitbuf.append b b;
    check_same (Printf.sprintf "self-append of %d bits" len) ~expected b
  done

let test_strings_match_reference () =
  let rng = Random.State.make [| 0x5 |] in
  List.iter
    (fun s ->
      for off = 0 to 8 do
        let got = prefix rng off in
        let expected = Bitbuf.copy got in
        Bitbuf.add_string got s;
        String.iter (fun c -> ref_add_int expected ~width:8 (Char.code c)) s;
        check_same (Printf.sprintf "%S at offset %d" s off) ~expected got;
        let r = Bitbuf.reader got in
        ignore (Bitbuf.read_int r ~width:off);
        check_string "read_string inverts add_string" s (Bitbuf.read_string r (String.length s));
        check_bool "read to the end" true (Bitbuf.at_end r)
      done)
    [ ""; "a"; "\x00\xff"; "degraded: advice-fallback(1)" ]

let test_writers_reject_bad_arguments () =
  let b = Bitbuf.of_string "101" in
  Alcotest.check_raises "negative width" (Invalid_argument "Bitbuf.add_int: negative width")
    (fun () -> Bitbuf.add_int b ~width:(-1) 0);
  Alcotest.check_raises "negative value" (Invalid_argument "Bitbuf.add_int: negative value")
    (fun () -> Bitbuf.add_int b ~width:8 (-5));
  Alcotest.check_raises "does not fit" (Invalid_argument "Bitbuf.add_int: value does not fit in width")
    (fun () -> Bitbuf.add_int b ~width:61 (1 lsl 61));
  Alcotest.check_raises "does not fit at width 0"
    (Invalid_argument "Bitbuf.add_int: value does not fit in width") (fun () ->
      Bitbuf.add_int b ~width:0 1);
  check_string "failed writes leave the buffer alone" "101" (Bitbuf.to_string b);
  let r = Bitbuf.reader b in
  Alcotest.check_raises "read_string negative"
    (Invalid_argument "Bitbuf.read_string: negative length") (fun () ->
      ignore (Bitbuf.read_string r (-1)));
  Alcotest.check_raises "read_string past the end" Bitbuf.End_of_bits (fun () ->
      ignore (Bitbuf.read_string r 1))

let qcheck_bits_roundtrip =
  QCheck.Test.make ~name:"of_bits/to_bits roundtrip" ~count:200
    QCheck.(small_list bool)
    (fun bits -> Bitbuf.to_bits (Bitbuf.of_bits bits) = bits)

let qcheck_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:200
    QCheck.(small_list bool)
    (fun bits ->
      let b = Bitbuf.of_bits bits in
      Bitbuf.equal b (Bitbuf.of_string (Bitbuf.to_string b)))

let qcheck_ints_roundtrip =
  QCheck.Test.make ~name:"add_int/read_int roundtrip" ~count:200
    QCheck.(small_list (int_bound 1_000_000))
    (fun values ->
      let width = 20 in
      let b = Bitbuf.create () in
      List.iter (fun v -> Bitbuf.add_int b ~width v) values;
      let r = Bitbuf.reader b in
      List.for_all (fun v -> Bitbuf.read_int r ~width = v) values && Bitbuf.at_end r)

let suite =
  [
    Alcotest.test_case "empty buffer" `Quick test_empty;
    Alcotest.test_case "add_bit/get" `Quick test_add_bit;
    Alcotest.test_case "add_bits preserves order" `Quick test_add_bits_order;
    Alcotest.test_case "growth across byte boundaries" `Quick test_growth_across_bytes;
    Alcotest.test_case "add_int is MSB-first" `Quick test_add_int_msb_first;
    Alcotest.test_case "add_int pads leading zeros" `Quick test_add_int_leading_zeros;
    Alcotest.test_case "add_int with width 0" `Quick test_add_int_zero_width;
    Alcotest.test_case "add_int overflow rejected" `Quick test_add_int_overflow;
    Alcotest.test_case "add_int negative rejected" `Quick test_add_int_negative;
    Alcotest.test_case "of_string/to_string roundtrip" `Quick test_of_string_roundtrip;
    Alcotest.test_case "of_string rejects bad chars" `Quick test_of_string_bad_char;
    Alcotest.test_case "of_bits/to_bits roundtrip" `Quick test_of_bits_to_bits;
    Alcotest.test_case "append" `Quick test_append;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "get out of range" `Quick test_get_out_of_range;
    Alcotest.test_case "reader bit cursor" `Quick test_reader_bits;
    Alcotest.test_case "reader reads ints" `Quick test_reader_int;
    Alcotest.test_case "reader int underflow" `Quick test_reader_int_underflow;
    Alcotest.test_case "add_int = bit-by-bit at widths 0..62, offsets 0..7" `Quick
      test_add_int_matches_reference;
    Alcotest.test_case "add_int wider than 62 bits pads with zeros" `Quick test_add_int_wide_fields;
    Alcotest.test_case "append = bit-by-bit at lengths 0..70, offsets 0..15" `Quick
      test_append_matches_reference;
    Alcotest.test_case "append of a buffer to itself" `Quick test_append_self;
    Alcotest.test_case "add_string/read_string = 8-bit add_int/read_int" `Quick
      test_strings_match_reference;
    Alcotest.test_case "byte-wise writers keep their invalid_arg checks" `Quick
      test_writers_reject_bad_arguments;
    QCheck_alcotest.to_alcotest qcheck_bits_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_string_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_ints_roundtrip;
  ]
