type record = {
  protocol : string;
  scheduler : string;
  n : int;
  messages : int;
  source_msgs : int;
  hello_msgs : int;
  control_msgs : int;
  bits_on_wire : int;
  rounds : int;
  causal_depth : int;
  advice_bits : int;
  completed : bool;
}

type t = { mutable entries : record list (* newest first *) }

let create () = { entries = [] }

let note ?registry r =
  match registry with Some t -> t.entries <- r :: t.entries | None -> ()

let records t = List.rev t.entries

let by_protocol t name = List.rev (List.filter (fun r -> r.protocol = name) t.entries)

let length t = List.length t.entries

let clear t = t.entries <- []

let pp_record fmt r =
  Format.fprintf fmt
    "@[<h>%s[%s] n=%d msgs=%d (src=%d hello=%d ctl=%d) bits=%d rounds=%d depth=%d advice=%db \
     completed=%b@]"
    r.protocol r.scheduler r.n r.messages r.source_msgs r.hello_msgs r.control_msgs
    r.bits_on_wire r.rounds r.causal_depth r.advice_bits r.completed
