type result = {
  car_total : int;
  car_chained : int;
  cdr_total : int;
  cdr_chained : int;
  all_total : int;
  all_chained : int;
}

let analyze (trace : Trace.Preprocess.t) =
  let car_total = ref 0 and car_chained = ref 0 in
  let cdr_total = ref 0 and cdr_chained = ref 0 in
  let all_total = ref 0 and all_chained = ref 0 in
  Array.iter
    (fun code ->
       let kind = Trace.Preprocess.kind code in
       if kind >= 2 then begin
         let chained = Trace.Preprocess.chained code in
         incr all_total;
         if chained then incr all_chained;
         if kind = 2 then begin
           incr car_total;
           if chained then incr car_chained
         end
         else if kind = 3 then begin
           incr cdr_total;
           if chained then incr cdr_chained
         end
       end)
    trace.codes;
  { car_total = !car_total; car_chained = !car_chained; cdr_total = !cdr_total;
    cdr_chained = !cdr_chained; all_total = !all_total; all_chained = !all_chained }

let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

let car_pct r = pct r.car_chained r.car_total
let cdr_pct r = pct r.cdr_chained r.cdr_total
let all_pct r = pct r.all_chained r.all_total
