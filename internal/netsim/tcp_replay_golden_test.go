package netsim

// tcpReplayGolden holds the frame logs of tcpScenarios as RECORDED ON THE
// PARENT TREE (commit 5d8ed2e, closure-per-frame TCP): never regenerate it
// from the transport under test.
var tcpReplayGolden = map[string]string{
	"exchange-reply": `0 S get 0>1 tcp counted
0 S tcp/SYN 0>1 tcp-ctl
93096 S tcp/SYN-ACK 1>0 tcp-ctl
139107 S get 0>1 tcp retx
191860 R get 0>1 tcp retx
191860 S reply 1>0 tcp counted
191860 S reply 1>0 tcp retx
191860 S tcp/ACK 1>0 tcp-ctl
227145 R reply 1>0 tcp retx
227145 S tcp/ACK 0>1 tcp-ctl
247645 result get <nil>
259665 result reply <nil>
1000000000 S get 0>1 tcp counted
1000000000 S tcp/SYN 0>1 tcp-ctl
1000059073 S tcp/SYN-ACK 1>0 tcp-ctl
1000138171 S get 0>1 tcp retx
1000205370 R get 0>1 tcp retx
1000205370 S reply 1>0 tcp counted
1000205370 S reply 1>0 tcp retx
1000205370 S tcp/ACK 1>0 tcp-ctl
1000230073 result get2 <nil>
1000258984 R reply 1>0 tcp retx
1000258984 S tcp/ACK 0>1 tcp-ctl
1000322008 result reply <nil>
counters sends=16 discovery=4 transport=12 delivered=4 drops=0 counted=4
rng 4196061574266695392
`,
	"syn-lost-retry": `0 N 1 Rx down
0 S notify 0>1 tcp counted
0 S tcp/SYN 0>1 tcp-ctl
93096 D tcp/SYN 0>1 tcp-ctl :rx down
6000000000 S tcp/SYN 0>1 tcp-ctl
6000046011 D tcp/SYN 0>1 tcp-ctl :rx down
25000000000 N 1 Rx up
30000000000 S tcp/SYN 0>1 tcp-ctl
30000052753 S tcp/SYN-ACK 1>0 tcp-ctl
30000088038 S notify 0>1 tcp retx
30000143823 R notify 0>1 tcp retx
30000143823 S tcp/ACK 1>0 tcp-ctl
30000176343 result notify <nil>
counters sends=7 discovery=1 transport=6 delivered=1 drops=2 counted=1
rng 8092113344071933522
`,
	"rex": `0 N 0 Tx down
0 S notify 0>1 tcp counted
0 S tcp/SYN 0>1 tcp-ctl
0 D tcp/SYN 0>1 tcp-ctl :tx down
6000000000 S tcp/SYN 0>1 tcp-ctl
6000000000 D tcp/SYN 0>1 tcp-ctl :tx down
30000000000 S tcp/SYN 0>1 tcp-ctl
30000000000 D tcp/SYN 0>1 tcp-ctl :tx down
54000000000 S tcp/SYN 0>1 tcp-ctl
54000000000 D tcp/SYN 0>1 tcp-ctl :tx down
78000000000 S tcp/SYN 0>1 tcp-ctl
78000000000 D tcp/SYN 0>1 tcp-ctl :tx down
102000000000 result notify netsim: remote exception (TCP connection setup failed)
counters sends=6 discovery=1 transport=5 delivered=0 drops=5 counted=1
rng 5225608189600411232
`,
	"abort-mid-setup": `0 N 1 Rx down
0 S notify 0>1 tcp
0 S tcp/SYN 0>1 tcp-ctl
93096 D tcp/SYN 0>1 tcp-ctl :rx down
6000000000 S tcp/SYN 0>1 tcp-ctl
6000046011 D tcp/SYN 0>1 tcp-ctl :rx down
10000000000 result notify netsim: transfer aborted by sender
20000000000 N 1 Rx up
counters sends=3 discovery=1 transport=2 delivered=0 drops=2 counted=0
rng 8955919645141445295
`,
	"abort-mid-transfer": `0 S notify 0>1 tcp
0 S tcp/SYN 0>1 tcp-ctl
100000 S tcp/SYN-ACK 1>0 tcp-ctl
200000 S notify 0>1 tcp retx
250000 N 1 Rx down
300000 D notify 0>1 tcp retx :rx down
1000200000 S notify 0>1 tcp retx
1000300000 D notify 0>1 tcp retx :rx down
2250200000 S notify 0>1 tcp retx
2250300000 D notify 0>1 tcp retx :rx down
3812700000 S notify 0>1 tcp retx
3812800000 D notify 0>1 tcp retx :rx down
5000000000 result notify netsim: transfer aborted by sender
6000000000 N 1 Rx up
counters sends=7 discovery=1 transport=6 delivered=0 drops=4 counted=0
rng 5225608189600411232
`,
	"rto-backoff": `0 S notify 0>1 tcp
0 S tcp/SYN 0>1 tcp-ctl
100000 S tcp/SYN-ACK 1>0 tcp-ctl
200000 S notify 0>1 tcp retx
250000 N 1 Rx down
300000 D notify 0>1 tcp retx :rx down
1000200000 S notify 0>1 tcp retx
1000300000 D notify 0>1 tcp retx :rx down
2250200000 S notify 0>1 tcp retx
2250300000 D notify 0>1 tcp retx :rx down
3812700000 S notify 0>1 tcp retx
3812800000 D notify 0>1 tcp retx :rx down
5765825000 S notify 0>1 tcp retx
5765925000 D notify 0>1 tcp retx :rx down
8207231250 S notify 0>1 tcp retx
8207331250 D notify 0>1 tcp retx :rx down
11258989062 S notify 0>1 tcp retx
11259089062 D notify 0>1 tcp retx :rx down
15073686327 S notify 0>1 tcp retx
15073786327 D notify 0>1 tcp retx :rx down
19842057908 S notify 0>1 tcp retx
19842157908 D notify 0>1 tcp retx :rx down
25802522384 S notify 0>1 tcp retx
25802622384 D notify 0>1 tcp retx :rx down
33253102979 S notify 0>1 tcp retx
33253202979 D notify 0>1 tcp retx :rx down
40000000000 N 1 Rx up
42566328722 S notify 0>1 tcp retx
42566428722 R notify 0>1 tcp retx
42566428722 S tcp/ACK 1>0 tcp-ctl
42566528722 result notify <nil>
counters sends=16 discovery=1 transport=15 delivered=1 drops=11 counted=0
rng 5225608189600411232
`,
	"rto-ceiling-jitter": `0 S notify 0>1 tcp
0 S tcp/SYN 0>1 tcp-ctl
100000 S tcp/SYN-ACK 1>0 tcp-ctl
200000 S notify 0>1 tcp retx
250000 N 1 Rx down
300000 D notify 0>1 tcp retx :rx down
1149394874 S notify 0>1 tcp retx
1149494874 D notify 0>1 tcp retx :rx down
2551812982 S notify 0>1 tcp retx
2551912982 D notify 0>1 tcp retx :rx down
4198431146 S notify 0>1 tcp retx
4198531146 D notify 0>1 tcp retx :rx down
6795279622 S notify 0>1 tcp retx
6795379622 D notify 0>1 tcp retx :rx down
9261145388 S notify 0>1 tcp retx
9261245388 D notify 0>1 tcp retx :rx down
11656951618 S notify 0>1 tcp retx
11657051618 D notify 0>1 tcp retx :rx down
14636771805 S notify 0>1 tcp retx
14636871805 D notify 0>1 tcp retx :rx down
16846358876 S notify 0>1 tcp retx
16846458876 D notify 0>1 tcp retx :rx down
19159184323 S notify 0>1 tcp retx
19159284323 D notify 0>1 tcp retx :rx down
20000000000 N 1 Rx up
21859176716 S notify 0>1 tcp retx
21859276716 R notify 0>1 tcp retx
21859276716 S tcp/ACK 1>0 tcp-ctl
21859376716 result notify <nil>
counters sends=15 discovery=1 transport=14 delivered=1 drops=10 counted=0
rng 5584017301749351935
`,
	"data-retransmit-cap": `0 S notify 0>1 tcp
0 S tcp/SYN 0>1 tcp-ctl
100000 S tcp/SYN-ACK 1>0 tcp-ctl
200000 S notify 0>1 tcp retx
250000 N 1 Rx down
300000 D notify 0>1 tcp retx :rx down
1000200000 S notify 0>1 tcp retx
1000300000 D notify 0>1 tcp retx :rx down
2250200000 S notify 0>1 tcp retx
2250300000 D notify 0>1 tcp retx :rx down
3812700000 S notify 0>1 tcp retx
3812800000 D notify 0>1 tcp retx :rx down
5765825000 result notify netsim: remote exception (TCP connection setup failed)
counters sends=7 discovery=1 transport=6 delivered=0 drops=4 counted=0
rng 5225608189600411232
`,
	"ack-path-down": `0 S notify 0>1 tcp
0 S tcp/SYN 0>1 tcp-ctl
100000 S tcp/SYN-ACK 1>0 tcp-ctl
200000 S notify 0>1 tcp retx
250000 N 1 Tx down
300000 R notify 0>1 tcp retx
300000 S tcp/ACK 1>0 tcp-ctl
300000 D tcp/ACK 1>0 tcp-ctl :tx down
1000200000 S notify 0>1 tcp retx
1000300000 S tcp/ACK 1>0 tcp-ctl
1000300000 D tcp/ACK 1>0 tcp-ctl :tx down
2250200000 S notify 0>1 tcp retx
2250300000 S tcp/ACK 1>0 tcp-ctl
2250300000 D tcp/ACK 1>0 tcp-ctl :tx down
3812700000 S notify 0>1 tcp retx
3812800000 S tcp/ACK 1>0 tcp-ctl
3812800000 D tcp/ACK 1>0 tcp-ctl :tx down
5765825000 S notify 0>1 tcp retx
5765925000 S tcp/ACK 1>0 tcp-ctl
5765925000 D tcp/ACK 1>0 tcp-ctl :tx down
8207231250 S notify 0>1 tcp retx
8207331250 S tcp/ACK 1>0 tcp-ctl
8207331250 D tcp/ACK 1>0 tcp-ctl :tx down
10000000000 N 1 Tx up
11258989062 S notify 0>1 tcp retx
11259089062 S tcp/ACK 1>0 tcp-ctl
11259189062 result notify <nil>
counters sends=17 discovery=1 transport=16 delivered=1 drops=6 counted=0
rng 5225608189600411232
`,
	"abort-on-retire-setup": `0 N 1 Rx down
0 S notify 0>1 tcp
0 S tcp/SYN 0>1 tcp-ctl
93096 D tcp/SYN 0>1 tcp-ctl :rx down
6000000000 S tcp/SYN 0>1 tcp-ctl
6000046011 D tcp/SYN 0>1 tcp-ctl :rx down
10000000000 N 0 retired
30000000000 result notify netsim: transfer aborted by sender
counters sends=3 discovery=1 transport=2 delivered=0 drops=2 counted=0
rng 8955919645141445295
`,
	"abort-on-retire-recycled-slot": `0 S notify 0>1 tcp
0 S tcp/SYN 0>1 tcp-ctl
100000 S tcp/SYN-ACK 1>0 tcp-ctl
200000 S notify 0>1 tcp retx
250000 N 1 Rx down
300000 D notify 0>1 tcp retx :rx down
1000200000 S notify 0>1 tcp retx
1000300000 D notify 0>1 tcp retx :rx down
2000000000 N 0 retired
2000000000 N 0 attached
2250200000 result notify netsim: transfer aborted by sender
counters sends=5 discovery=1 transport=4 delivered=0 drops=2 counted=0
rng 5225608189600411232
`,
	"receiver-slot-recycled-in-flight": `0 S notify 0>1 tcp
0 S tcp/SYN 0>1 tcp-ctl
50000 N 1 retired
50000 N 1 attached
100000 D tcp/SYN 0>1 tcp-ctl :slot recycled
6000000000 S tcp/SYN 0>1 tcp-ctl
6000100000 S tcp/SYN-ACK 1>0 tcp-ctl
6000200000 S notify 0>1 tcp retx
6000300000 S tcp/ACK 1>0 tcp-ctl
6000400000 result notify <nil>
counters sends=6 discovery=1 transport=5 delivered=0 drops=1 counted=0
rng 5225608189600411232
`,
	"lossy-exchanges": `1000000 S get0 0>1 tcp counted
1000000 S tcp/SYN 0>1 tcp-ctl
1046011 S tcp/SYN-ACK 1>0 tcp-ctl
1081296 S get0 0>1 tcp retx
1113816 R get0 0>1 tcp retx
1113816 S reply 1>0 tcp counted
1113816 S reply 1>0 tcp retx
1113816 S tcp/ACK 1>0 tcp-ctl
1113816 D tcp/ACK 1>0 tcp-ctl :lost
1192914 R reply 1>0 tcp retx
1192914 S tcp/ACK 0>1 tcp-ctl
1217617 result reply <nil>
1001000000 S get1 0>1 tcp counted
1001000000 S tcp/SYN 0>1 tcp-ctl
1001081189 S tcp/SYN-ACK 1>0 tcp-ctl
1001081296 S get0 0>1 tcp retx
1001081296 D get0 0>1 tcp retx :lost
1001175226 S get1 0>1 tcp retx
1001251873 R get1 0>1 tcp retx
1001251873 S reply 1>0 tcp counted
1001251873 S reply 1>0 tcp retx
1001251873 S tcp/ACK 1>0 tcp-ctl
1001251873 D tcp/ACK 1>0 tcp-ctl :lost
1001326781 R reply 1>0 tcp retx
1001326781 S tcp/ACK 0>1 tcp-ctl
1001326781 D tcp/ACK 0>1 tcp-ctl :lost
2001000000 S get2 0>1 tcp counted
2001000000 S tcp/SYN 0>1 tcp-ctl
2001099296 S tcp/SYN-ACK 1>0 tcp-ctl
2001099296 D tcp/SYN-ACK 1>0 tcp-ctl :lost
2001175226 S get1 0>1 tcp retx
2001175226 D get1 0>1 tcp retx :lost
2001251873 S reply 1>0 tcp retx
2001266451 S tcp/ACK 0>1 tcp-ctl
2001266451 D tcp/ACK 0>1 tcp-ctl :lost
2251081296 S get0 0>1 tcp retx
2251144328 S tcp/ACK 1>0 tcp-ctl
2251175957 result get0 <nil>
3001000000 S get3 0>1 tcp counted
3001000000 S tcp/SYN 0>1 tcp-ctl
3001011129 S tcp/SYN-ACK 1>0 tcp-ctl
3001085498 S get3 0>1 tcp retx
3001160614 R get3 0>1 tcp retx
3001160614 S reply 1>0 tcp counted
3001160614 S reply 1>0 tcp retx
3001160614 S tcp/ACK 1>0 tcp-ctl
3001201586 result get3 <nil>
3001235095 R reply 1>0 tcp retx
3001235095 S tcp/ACK 0>1 tcp-ctl
3001266958 result reply <nil>
3251175226 S get1 0>1 tcp retx
3251223022 S tcp/ACK 1>0 tcp-ctl
3251223022 D tcp/ACK 1>0 tcp-ctl :lost
3251251873 S reply 1>0 tcp retx
3251303797 S tcp/ACK 0>1 tcp-ctl
3251351984 result reply <nil>
4001000000 S get4 0>1 tcp counted
4001000000 S tcp/SYN 0>1 tcp-ctl
4001091608 S tcp/SYN-ACK 1>0 tcp-ctl
4001142451 S get4 0>1 tcp retx
4001214043 R get4 0>1 tcp retx
4001214043 S reply 1>0 tcp counted
4001214043 S reply 1>0 tcp retx
4001214043 S tcp/ACK 1>0 tcp-ctl
4001232773 result get4 <nil>
4001286260 R reply 1>0 tcp retx
4001286260 S tcp/ACK 0>1 tcp-ctl
4001352563 result reply <nil>
4813675226 S get1 0>1 tcp retx
4813748579 S tcp/ACK 1>0 tcp-ctl
4813748579 D tcp/ACK 1>0 tcp-ctl :lost
5001000000 S get5 0>1 tcp counted
5001000000 S tcp/SYN 0>1 tcp-ctl
5001000000 D tcp/SYN 0>1 tcp-ctl :lost
6766800226 S get1 0>1 tcp retx
6766838517 S tcp/ACK 1>0 tcp-ctl
6766838517 D tcp/ACK 1>0 tcp-ctl :lost
8001000000 S tcp/SYN 0>1 tcp-ctl
8001074348 S tcp/SYN-ACK 1>0 tcp-ctl
8001122850 S get2 0>1 tcp retx
8001175033 R get2 0>1 tcp retx
8001175033 S reply 1>0 tcp counted
8001175033 S reply 1>0 tcp retx
8001175033 S tcp/ACK 1>0 tcp-ctl
8001175033 D tcp/ACK 1>0 tcp-ctl :lost
8001247814 R reply 1>0 tcp retx
8001247814 S tcp/ACK 0>1 tcp-ctl
8001327291 result reply <nil>
9001122850 S get2 0>1 tcp retx
9001202947 S tcp/ACK 1>0 tcp-ctl
9001231639 result get2 <nil>
9208206476 S get1 0>1 tcp retx
9208267599 S tcp/ACK 1>0 tcp-ctl
9208267599 D tcp/ACK 1>0 tcp-ctl :lost
11001000000 S tcp/SYN 0>1 tcp-ctl
11001054834 S tcp/SYN-ACK 1>0 tcp-ctl
11001135438 S get5 0>1 tcp retx
11001175112 R get5 0>1 tcp retx
11001175112 S reply 1>0 tcp counted
11001175112 S reply 1>0 tcp retx
11001175112 D reply 1>0 tcp retx :lost
11001175112 S tcp/ACK 1>0 tcp-ctl
11001226732 result get5 <nil>
12001175112 S reply 1>0 tcp retx
12001175112 D reply 1>0 tcp retx :lost
12259964288 S get1 0>1 tcp retx
12260049863 S tcp/ACK 1>0 tcp-ctl
12260141573 result get1 <nil>
13251175112 S reply 1>0 tcp retx
13251205577 R reply 1>0 tcp retx
13251205577 S tcp/ACK 0>1 tcp-ctl
13251294019 result reply <nil>
counters sends=73 discovery=12 transport=61 delivered=12 drops=15 counted=12
rng 270404806007976683
`,
}
