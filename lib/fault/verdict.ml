type budgets = {
  clean : int;
  degraded : int;
  recovery : int;
}

type t =
  | Completed
  | Degraded of string
  | Stalled of {
      informed : int;
      survivors : int;
      n : int;
    }
  | Violated of string

let fallback_tag = "fallback-flood"

let classify ?(check_silence = false) ?cutoff ?unreachable ~n ~budgets events =
  let out = Obs.Replay.replay ~n events in
  let excluded = Array.make n false in
  let failed = ref 0 in
  let fallbacks = ref 0 in
  let silent = ref true in
  List.iter
    (fun ev ->
      match ev.Obs.Event.kind with
      | Obs.Event.Fault (Obs.Event.Crashed v | Obs.Event.Dead v) ->
        if not excluded.(v) then incr failed;
        excluded.(v) <- true
      | Obs.Event.Decide (_, tag) when tag = fallback_tag -> incr fallbacks
      | Obs.Event.Send l -> if not l.Obs.Event.informed then silent := false
      | Obs.Event.Deliver _ | Obs.Event.Wake _ | Obs.Event.Decide _ | Obs.Event.Advice_read _
      | Obs.Event.Fault _ | Obs.Event.Recover _ ->
        ())
    events;
  (* Nodes the caller proved physically unreachable (every path from the
     source crosses a failed node) join the excluded set: no amount of
     retransmission can inform them, so the scheme owes them nothing —
     but unlike failures they are reported under their own label. *)
  let stranded = ref 0 in
  (match unreachable with
  | None -> ()
  | Some reach ->
    if Array.length reach <> n then
      invalid_arg "Fault.Verdict.classify: unreachable array length <> n";
    for v = 0 to n - 1 do
      if reach.(v) && not excluded.(v) then begin
        incr stranded;
        excluded.(v) <- true
      end
    done);
  let sent = out.Obs.Replay.summary.Obs.Counting.sent in
  let retransmits = out.Obs.Replay.summary.Obs.Counting.retransmits in
  let survivors = ref 0 in
  let informed = ref 0 in
  for v = 0 to n - 1 do
    if not excluded.(v) then begin
      incr survivors;
      if out.Obs.Replay.informed.(v) then incr informed
    end
  done;
  let excluded_count = n - !survivors in
  match cutoff with
  | _ when check_silence && not !silent -> Violated "wakeup-silence: a non-woken node transmitted"
  | Some cap ->
    Violated
      (Printf.sprintf "message-cutoff: cut off at %d messages (cap %d), queue not drained" sent cap)
  | None ->
    if sent > budgets.degraded then
      Violated
        (Printf.sprintf "message-budget: %d sent, %d allowed even degraded" sent budgets.degraded)
    else if retransmits > budgets.recovery then
      Violated
        (Printf.sprintf "recovery-budget: %d retransmissions, %d allowed" retransmits
           budgets.recovery)
    else if out.Obs.Replay.in_flight > 0 then
      Violated (Printf.sprintf "runaway: %d messages still in flight" out.Obs.Replay.in_flight)
    else if !informed < !survivors then Stalled { informed = !informed; survivors = !survivors; n }
    else if !fallbacks = 0 && excluded_count = 0 && retransmits = 0 && sent <= budgets.clean then
      Completed
    else begin
      let parts = ref [] in
      if sent > budgets.clean then
        parts := Printf.sprintf "over-clean-budget(%d>%d)" sent budgets.clean :: !parts;
      if !failed > 0 then parts := Printf.sprintf "node-failures(%d)" !failed :: !parts;
      if !stranded > 0 then parts := Printf.sprintf "unreachable(%d)" !stranded :: !parts;
      if !fallbacks > 0 then parts := Printf.sprintf "advice-fallback(%d)" !fallbacks :: !parts;
      if retransmits > 0 then parts := Printf.sprintf "retransmissions(%d)" retransmits :: !parts;
      Degraded (String.concat "," !parts)
    end

let to_string = function
  | Completed -> "completed"
  | Degraded reason -> Printf.sprintf "degraded: %s" reason
  | Stalled { informed; survivors; n } ->
    Printf.sprintf "stalled: %d/%d survivors informed (n=%d)" informed survivors n
  | Violated invariant -> Printf.sprintf "violated: %s" invariant

let pp fmt v = Format.pp_print_string fmt (to_string v)

let acceptable = function
  | Completed | Degraded _ -> true
  | Stalled _ | Violated _ -> false
